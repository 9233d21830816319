module type KEY = sig
  type t

  val compare : t -> t -> int
end

module Make (Key : KEY) = struct
  (* Separator invariant: keys in [children.(i)] are < [seps.(i)] and
     keys in [children.(i+1)] are >= [seps.(i)].  Removals never update
     separators (only shrink subtrees), which preserves both bounds. *)
  type 'a node =
    | Leaf of { keys : Key.t array; vals : 'a array }
    | Node of { seps : Key.t array; children : 'a node array }

  type 'a t = {
    root : 'a node;
    count : int;
    leaf_capacity : int;
    internal_capacity : int;
  }

  let empty ?(leaf_capacity = 20) ?(internal_capacity = 20) () =
    if leaf_capacity < 2 then invalid_arg "Cowtree.empty: leaf_capacity < 2";
    if internal_capacity < 3 then invalid_arg "Cowtree.empty: internal_capacity < 3";
    {
      root = Leaf { keys = [||]; vals = [||] };
      count = 0;
      leaf_capacity;
      internal_capacity;
    }

  let length t = t.count

  let is_empty t = t.count = 0

  (* First index with keys.(i) >= k. *)
  let lower_bound keys k =
    let lo = ref 0 and hi = ref (Array.length keys) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if Key.compare keys.(mid) k < 0 then lo := mid + 1 else hi := mid
    done;
    !lo

  (* First index with keys.(i) > k. *)
  let upper_bound keys k =
    let lo = ref 0 and hi = ref (Array.length keys) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if Key.compare keys.(mid) k <= 0 then lo := mid + 1 else hi := mid
    done;
    !lo

  (* Child index for key [k]: first i with k < seps.(i), else the last
     child.  Keys equal to a separator live right of it (both for the
     append-after-duplicates insert and for seeks, since the left
     subtree holds strictly smaller keys only). *)
  let route seps k =
    let lo = ref 0 and hi = ref (Array.length seps) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if Key.compare k seps.(mid) < 0 then hi := mid else lo := mid + 1
    done;
    !lo

  let array_insert a i x =
    let n = Array.length a in
    Array.init (n + 1) (fun j -> if j < i then a.(j) else if j = i then x else a.(j - 1))

  let array_remove a i =
    let n = Array.length a in
    Array.init (n - 1) (fun j -> if j < i then a.(j) else a.(j + 1))

  let array_set a i x =
    let a' = Array.copy a in
    a'.(i) <- x;
    a'

  let sub = Array.sub

  (* Split position for an overfull leaf: a point near the middle where
     adjacent keys differ.  [None] if every key is equal — the leaf then
     stays oversized rather than split a duplicate run. *)
  let leaf_split_point keys =
    let n = Array.length keys in
    let mid = n / 2 in
    let ok s = s > 0 && s < n && Key.compare keys.(s - 1) keys.(s) < 0 in
    let rec search delta =
      if mid + delta >= n && mid - delta <= 0 then None
      else if ok (mid + delta) then Some (mid + delta)
      else if ok (mid - delta) then Some (mid - delta)
      else search (delta + 1)
    in
    search 0

  (* {2 Insert} *)

  (* Returns either the replacement node, or (left, sep, right) when the
     node split. *)
  let rec insert_rec t node k v =
    match node with
    | Leaf { keys; vals } -> (
        let i = upper_bound keys k in
        let keys = array_insert keys i k and vals = array_insert vals i v in
        if Array.length keys <= t.leaf_capacity then `One (Leaf { keys; vals })
        else
          match leaf_split_point keys with
          | None -> `One (Leaf { keys; vals }) (* all-equal: stay oversized *)
          | Some s ->
              let n = Array.length keys in
              `Split
                ( Leaf { keys = sub keys 0 s; vals = sub vals 0 s },
                  keys.(s),
                  Leaf { keys = sub keys s (n - s); vals = sub vals s (n - s) } ))
    | Node { seps; children } -> (
        let i = route seps k in
        match insert_rec t children.(i) k v with
        | `One child -> `One (Node { seps; children = array_set children i child })
        | `Split (l, sep, r) ->
            let seps = array_insert seps i sep in
            let children = array_set children i l in
            let children = array_insert children (i + 1) r in
            if Array.length children <= t.internal_capacity then
              `One (Node { seps; children })
            else
              let m = Array.length seps / 2 in
              `Split
                ( Node { seps = sub seps 0 m; children = sub children 0 (m + 1) },
                  seps.(m),
                  Node
                    {
                      seps = sub seps (m + 1) (Array.length seps - m - 1);
                      children = sub children (m + 1) (Array.length children - m - 1);
                    } ))

  let insert t k v =
    let root =
      match insert_rec t t.root k v with
      | `One n -> n
      | `Split (l, sep, r) -> Node { seps = [| sep |]; children = [| l; r |] }
    in
    { t with root; count = t.count + 1 }

  (* {2 Remove}

     Relaxed: an emptied leaf is unlinked from its parent (and an
     emptied subtree propagates up), but no borrowing or merging is
     done.  Separators of surviving children are untouched, which keeps
     their routing bounds valid. *)

  let rec remove_rec node k =
    match node with
    | Leaf { keys; vals } ->
        let i = lower_bound keys k in
        if i < Array.length keys && Key.compare keys.(i) k = 0 then
          if Array.length keys = 1 then `Emptied
          else `One (Leaf { keys = array_remove keys i; vals = array_remove vals i })
        else `Absent
    | Node { seps; children } -> (
        let i = route seps k in
        match remove_rec children.(i) k with
        | `Absent -> `Absent
        | `One child -> `One (Node { seps; children = array_set children i child })
        | `Emptied ->
            if Array.length children = 1 then `Emptied
            else
              (* Dropping child i removes the separator next to it: the
                 one on its left (or sep 0 for the leftmost child). *)
              let si = if i = 0 then 0 else i - 1 in
              `One
                (Node { seps = array_remove seps si; children = array_remove children i }))

  let remove t k =
    match remove_rec t.root k with
    | `Absent -> None
    | `Emptied ->
        Some { t with root = Leaf { keys = [||]; vals = [||] }; count = t.count - 1 }
    | `One root ->
        (* Collapse a chain of single-child roots. *)
        let rec collapse = function
          | Node { children = [| only |]; _ } -> collapse only
          | n -> n
        in
        Some { t with root = collapse root; count = t.count - 1 }

  (* {2 Lookup} *)

  let rec find_leaf node k =
    match node with
    | Leaf { keys; vals } -> (keys, vals)
    | Node { seps; children } -> find_leaf children.(route seps k) k

  let find t k =
    let keys, vals = find_leaf t.root k in
    let i = lower_bound keys k in
    if i < Array.length keys && Key.compare keys.(i) k = 0 then Some vals.(i)
    else None

  (* {2 Cursors}

     A cursor's spine is two arrays sized to the tree's height: the
     children array and the index taken at each internal level, root
     first.  Stepping, changing leaves and re-seeking rewrite them in
     place, so a cursor allocates only when it is made. *)

  type 'a cursor = {
    root : 'a node;
    nodes : 'a node array array;  (* children at each internal level *)
    slots : int array;  (* index taken into them *)
    mutable keys : Key.t array;
    mutable vals : 'a array;
    mutable idx : int;
    mutable ended : bool;
    mutable leaves : int;  (* leaves landed on; a leaf is a page *)
  }

  (* Every leaf sits at the same depth. *)
  let rec height = function
    | Leaf _ -> 0
    | Node { children; _ } -> 1 + height children.(0)

  let make_cursor root =
    let h = height root in
    {
      root;
      nodes = Array.make h [||];
      slots = Array.make h 0;
      keys = [||];
      vals = [||];
      idx = 0;
      ended = false;
      leaves = 0;
    }

  (* Stand on a leaf: a leaf's keys array is its own, so landing again on
     the leaf the cursor already stands on does not count it twice. *)
  let enter c keys vals =
    if keys != c.keys then c.leaves <- c.leaves + 1;
    c.keys <- keys;
    c.vals <- vals

  (* Descend from [node], at internal level [d], to its leftmost leaf. *)
  let rec descend_leftmost c d node =
    match node with
    | Leaf { keys; vals } ->
        enter c keys vals;
        c.idx <- 0
    | Node { children; _ } ->
        c.nodes.(d) <- children;
        c.slots.(d) <- 0;
        descend_leftmost c (d + 1) children.(0)

  (* Descend from [node], at internal level [d], to the first entry with
     key [>= k] in its subtree (or just past its last leaf's end). *)
  let rec descend c d node k =
    match node with
    | Leaf { keys; vals } ->
        enter c keys vals;
        c.idx <- lower_bound keys k
    | Node { seps; children } ->
        let i = route seps k in
        c.nodes.(d) <- children;
        c.slots.(d) <- i;
        descend c (d + 1) children.(i) k

  (* Advance past the current leaf: climb from level [d] until a level
     has a next sibling, descend to its leftmost leaf.  Leaves are never
     empty (removals unlink them), so landing on a leaf yields an entry —
     except for the empty-tree root leaf, handled by the caller. *)
  let rec advance_leaf c d =
    if d < 0 then c.ended <- true
    else
      let children = c.nodes.(d) and i = c.slots.(d) + 1 in
      if i < Array.length children then begin
        c.slots.(d) <- i;
        descend_leftmost c (d + 1) children.(i)
      end
      else advance_leaf c (d - 1)

  let fix c =
    if c.idx >= Array.length c.keys && not c.ended then
      advance_leaf c (Array.length c.slots - 1)

  let seek (t : _ t) k =
    let c = make_cursor t.root in
    descend c 0 t.root k;
    fix c;
    c

  let seek_first (t : _ t) =
    let c = make_cursor t.root in
    descend_leftmost c 0 t.root;
    fix c;
    c

  (* An ended cursor sits past its last leaf's end, so the index alone
     tells; past it, the accessors' array reads raise. *)
  let cursor_valid c = c.idx < Array.length c.keys

  let cursor_key c = c.keys.(c.idx)

  let cursor_value c = c.vals.(c.idx)

  let cursor_next c =
    if not c.ended then begin
      c.idx <- c.idx + 1;
      fix c
    end

  (* The first entry with key [>= k] lies past the cursor when the
     cursor's own key is below [k]. *)
  let cursor_reseek c k =
    if cursor_valid c && Key.compare c.keys.(c.idx) k < 0 then begin
      descend c 0 c.root k;
      fix c
    end

  let cursor_leaves c = c.leaves

  let find_all t k =
    let c = seek t k in
    let acc = ref [] in
    while cursor_valid c && Key.compare (cursor_key c) k = 0 do
      acc := cursor_value c :: !acc;
      cursor_next c
    done;
    List.rev !acc

  let iter t f =
    let c = seek_first t in
    while cursor_valid c do
      f (cursor_key c) (cursor_value c);
      cursor_next c
    done

  let to_list t =
    let acc = ref [] in
    iter t (fun k v -> acc := (k, v) :: !acc);
    List.rev !acc

  (* {2 Bulk build} *)

  let of_sorted_array ?(leaf_capacity = 20) ?(internal_capacity = 20) entries =
    let t0 = empty ~leaf_capacity ~internal_capacity () in
    let n = Array.length entries in
    for i = 1 to n - 1 do
      if Key.compare (fst entries.(i - 1)) (fst entries.(i)) > 0 then
        invalid_arg "Cowtree.of_sorted_array: input not sorted"
    done;
    if n = 0 then t0
    else begin
      (* Chunk into leaves; never split a run of equal keys. *)
      let chunks = ref [] in
      let start = ref 0 in
      while !start < n do
        let stop = ref (min n (!start + leaf_capacity)) in
        while
          !stop < n && !stop > !start + 1
          && Key.compare (fst entries.(!stop - 1)) (fst entries.(!stop)) = 0
        do
          decr stop
        done;
        (if !stop < n && Key.compare (fst entries.(!stop - 1)) (fst entries.(!stop)) = 0
         then
           let j = ref !stop in
           let () =
             while !j < n && Key.compare (fst entries.(!j - 1)) (fst entries.(!j)) = 0 do
               incr j
             done
           in
           stop := !j);
        chunks := (!start, !stop) :: !chunks;
        start := !stop
      done;
      (* [!chunks] is in reverse build order; [rev_map] restores it. *)
      let leaves =
        List.rev_map
          (fun (s, e) ->
            ( Leaf
                {
                  keys = Array.init (e - s) (fun i -> fst entries.(s + i));
                  vals = Array.init (e - s) (fun i -> snd entries.(s + i));
                },
              fst entries.(s) ))
          !chunks
      in
      (* Build internal levels; each (node, min key of its subtree). *)
      let rec build level =
        match level with
        | [] -> assert false
        | [ (node, _) ] -> node
        | _ ->
            let rec group acc cur cur_n = function
              | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
              | x :: rest ->
                  if cur_n = internal_capacity then group (List.rev cur :: acc) [ x ] 1 rest
                  else group acc (x :: cur) (cur_n + 1) rest
            in
            let groups = group [] [] 0 level in
            (* Avoid a trailing single-child group by rebalancing with
               the previous one. *)
            let groups =
              let rec fix = function
                | [ g1; [ single ] ] when List.length g1 >= 2 ->
                    let keep = List.length g1 - 1 in
                    let a = List.filteri (fun i _ -> i < keep) g1
                    and b = List.filteri (fun i _ -> i >= keep) g1 in
                    [ a; b @ [ single ] ]
                | g :: rest -> g :: fix rest
                | [] -> []
              in
              fix groups
            in
            build
              (List.map
                 (fun grp ->
                   let arr = Array.of_list grp in
                   let children = Array.map fst arr in
                   let seps =
                     Array.init (Array.length arr - 1) (fun i -> snd arr.(i + 1))
                   in
                   (Node { seps; children }, snd arr.(0)))
                 groups)
      in
      { t0 with root = build leaves; count = n }
    end

  (* {2 Invariant checking} *)

  let check_invariants t =
    let exception Bad of string in
    let fail fmt = Format.kasprintf (fun s -> raise (Bad s)) fmt in
    let check_sorted keys what =
      for i = 1 to Array.length keys - 1 do
        if Key.compare keys.(i - 1) keys.(i) > 0 then fail "%s: keys out of order" what
      done
    in
    let rec walk node lo hi ~is_root =
      match node with
      | Leaf { keys; vals } ->
          if Array.length keys <> Array.length vals then fail "leaf: keys/vals mismatch";
          check_sorted keys "leaf";
          let n = Array.length keys in
          if (not is_root) && n < 1 then fail "empty non-root leaf";
          if n > t.leaf_capacity then begin
            let all_equal =
              n = 0 || Array.for_all (fun k -> Key.compare k keys.(0) = 0) keys
            in
            if not all_equal then fail "leaf overfull (%d)" n
          end;
          Array.iter
            (fun k ->
              (match lo with
              | Some b when Key.compare k b < 0 -> fail "leaf key below bound"
              | _ -> ());
              match hi with
              | Some b when Key.compare k b >= 0 -> fail "leaf key above bound"
              | _ -> ())
            keys;
          (1, n)
      | Node { seps; children } ->
          let nc = Array.length children in
          if nc <> Array.length seps + 1 then fail "node arity mismatch";
          if nc < 1 then fail "node without children";
          if (not is_root) && nc < 1 then fail "underfull node";
          if nc > t.internal_capacity then fail "node overfull";
          check_sorted seps "node";
          (match (lo, hi) with
          | Some l, _ when Array.length seps > 0 && Key.compare seps.(0) l < 0 ->
              fail "sep below bound"
          | _, Some h when Array.length seps > 0 && Key.compare seps.(Array.length seps - 1) h > 0
            ->
              fail "sep above bound"
          | _ -> ());
          let depth = ref 0 and cnt = ref 0 in
          for i = 0 to nc - 1 do
            let clo = if i = 0 then lo else Some seps.(i - 1)
            and chi = if i = nc - 1 then hi else Some seps.(i) in
            let d, c = walk children.(i) clo chi ~is_root:false in
            if !depth = 0 then depth := d
            else if d <> !depth then fail "uneven leaf depth";
            cnt := !cnt + c
          done;
          (!depth + 1, !cnt)
    in
    match walk t.root None None ~is_root:true with
    | _, count ->
        if count <> t.count then
          Error (Printf.sprintf "size mismatch: %d counted vs %d recorded" count t.count)
        else Ok ()
    | exception Bad msg -> Error msg
end
