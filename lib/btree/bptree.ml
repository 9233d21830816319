module type KEY = sig
  type t

  val compare : t -> t -> int
  val separator : lo:t -> hi:t -> t
  val pp : Format.formatter -> t -> unit
  val encoded_bytes : t -> int
  val delta_bytes : prev:t -> t -> int
end

module Bitstring_key = struct
  type t = Sqp_zorder.Bitstring.t

  let compare = Sqp_zorder.Bitstring.compare
  let separator ~lo ~hi = Sqp_zorder.Bitstring.shortest_separator ~lo ~hi
  let pp = Sqp_zorder.Bitstring.pp

  (* Charges mirror the Zrun entry encodings: a whole key is a length
     byte plus its packed bits; a delta is a shared-prefix byte plus the
     packed suffix. *)
  let encoded_bytes b = 1 + ((Sqp_zorder.Bitstring.length b + 7) / 8)

  let delta_bytes ~prev b =
    let shared = Sqp_zorder.Bitstring.common_prefix_len prev b in
    1 + ((Sqp_zorder.Bitstring.length b - shared + 7) / 8)
end

module Int_key = struct
  type t = int

  let compare = Int.compare

  (* For integers, [hi] itself is a valid (and the only canonical)
     separator with lo < s <= hi. *)
  let separator ~lo ~hi =
    if lo >= hi then invalid_arg "Int_key.separator: lo >= hi";
    hi

  let pp = Format.pp_print_int

  let encoded_bytes _ = 8

  (* Leading equal bytes against the predecessor are elided, as a
     front coder over the big-endian representation would. *)
  let delta_bytes ~prev x =
    let rec significant n = if n = 0 then 0 else 1 + significant (n lsr 8) in
    1 + significant (prev lxor x)
end

(* Byte-budget page model: instead of fixed entry counts, a node is full
   when its encoded size would exceed [page_bytes].  With [compressed]
   set, keys after a node's first are charged their front-coded delta
   size; otherwise every key is charged [fixed_entry_bytes] (a
   fixed-width footprint of 4 bytes per coordinate), so the same byte
   budget reproduces the uncompressed baseline's fan-out for
   differential comparisons. *)
type budget = {
  page_bytes : int;
  compressed : bool;
  entry_overhead : int;  (* per-entry payload/bookkeeping charge *)
  fixed_entry_bytes : int;  (* per-key charge when not compressed *)
}

module Make (Key : KEY) = struct
  module Pool = Sqp_storage.Buffer_pool
  module Pager = Sqp_storage.Pager

  type 'a node =
    | Leaf of {
        keys : Key.t array;
        vals : 'a array;
        next : Pager.page_id option;
      }
    | Node of { seps : Key.t array; children : Pager.page_id array }

  type access_counters = {
    mutable leaf_reads : int;
    mutable internal_reads : int;
  }

  type 'a t = {
    pager : 'a node Pager.t;
    pool : 'a node Pool.t;
    mutable root : Pager.page_id;
    leaf_capacity : int;
    internal_capacity : int;
    budget : budget option;
    counters : access_counters;
    mutable size : int;
  }

  let create ?policy ?(pool_capacity = 8) ?budget ~leaf_capacity
      ~internal_capacity () =
    if leaf_capacity < 2 then invalid_arg "Bptree.create: leaf_capacity < 2";
    if internal_capacity < 3 then invalid_arg "Bptree.create: internal_capacity < 3";
    (match budget with
    | None -> ()
    | Some b ->
        if b.page_bytes < 16 then invalid_arg "Bptree.create: page_bytes < 16";
        if b.entry_overhead < 0 then
          invalid_arg "Bptree.create: negative entry_overhead";
        if b.fixed_entry_bytes < 1 then
          invalid_arg "Bptree.create: fixed_entry_bytes < 1");
    let pager = Pager.create () in
    let pool = Pool.create ?policy ~capacity:pool_capacity pager in
    let root = Pager.alloc pager (Leaf { keys = [||]; vals = [||]; next = None }) in
    {
      pager;
      pool;
      root;
      leaf_capacity;
      internal_capacity;
      budget;
      counters = { leaf_reads = 0; internal_reads = 0 };
      size = 0;
    }

  let budget t = t.budget

  (* {2 Byte accounting (budget mode)} *)

  let leaf_bytes b keys =
    let n = Array.length keys in
    let total = ref (n * b.entry_overhead) in
    if b.compressed then begin
      if n > 0 then total := !total + Key.encoded_bytes keys.(0);
      for i = 1 to n - 1 do
        total := !total + Key.delta_bytes ~prev:keys.(i - 1) keys.(i)
      done
    end
    else total := !total + (n * b.fixed_entry_bytes);
    !total

  (* Internal nodes: 4 bytes per child pointer plus the (front-coded)
     separators. *)
  let node_bytes b seps nchildren =
    let n = Array.length seps in
    let total = ref (4 * nchildren) in
    if b.compressed then begin
      if n > 0 then total := !total + Key.encoded_bytes seps.(0);
      for i = 1 to n - 1 do
        total := !total + Key.delta_bytes ~prev:seps.(i - 1) seps.(i)
      done
    end
    else total := !total + (n * b.fixed_entry_bytes);
    !total

  (* A budget-mode node must keep enough entries to split (2 keys / 3
     children of the halves), so byte overflow only triggers a split
     when one is possible. *)
  let leaf_overfull t keys =
    match t.budget with
    | None -> Array.length keys > t.leaf_capacity
    | Some b -> Array.length keys > 2 && leaf_bytes b keys > b.page_bytes

  let node_overfull t seps children =
    match t.budget with
    | None -> Array.length children > t.internal_capacity
    | Some b ->
        Array.length children > 3
        && node_bytes b seps (Array.length children) > b.page_bytes

  let io_stats t = Pager.stats t.pager

  let counters t = t.counters

  let reset_counters t =
    t.counters.leaf_reads <- 0;
    t.counters.internal_reads <- 0

  let read_node t page =
    let n = Pool.get t.pool page in
    (match n with
    | Leaf _ -> t.counters.leaf_reads <- t.counters.leaf_reads + 1
    | Node _ -> t.counters.internal_reads <- t.counters.internal_reads + 1);
    n

  let write_node t page n = Pool.update t.pool page n

  let free_node t page =
    Pool.discard t.pool page;
    Pager.free t.pager page

  let length t = t.size

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
     child.  Keys equal to a separator route right of it. *)
  let route seps k =
    let n = Array.length seps in
    let lo = ref 0 and hi = ref n in
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

  let sub = Array.sub

  (* Split position for an overfull leaf: a point near the middle where
     adjacent keys differ (a separator must exist between the halves).
     [None] if every key is equal — the leaf is then allowed to stay
     oversized rather than break separator invariants. *)
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

  let rec insert_rec t page k v =
    match read_node t page with
    | Leaf { keys; vals; next } -> (
        let i = upper_bound keys k in
        let keys = array_insert keys i k and vals = array_insert vals i v in
        if not (leaf_overfull t keys) then begin
          write_node t page (Leaf { keys; vals; next });
          None
        end
        else
          match leaf_split_point keys with
          | None ->
              (* All keys equal: tolerate an oversized leaf. *)
              write_node t page (Leaf { keys; vals; next });
              None
          | Some s ->
              let n = Array.length keys in
              let right =
                Leaf { keys = sub keys s (n - s); vals = sub vals s (n - s); next }
              in
              let right_id = Pager.alloc t.pager right in
              write_node t page
                (Leaf { keys = sub keys 0 s; vals = sub vals 0 s; next = Some right_id });
              let sep = Key.separator ~lo:keys.(s - 1) ~hi:keys.(s) in
              Some (sep, right_id))
    | Node { seps; children } -> (
        let i = route seps k in
        match insert_rec t children.(i) k v with
        | None -> None
        | Some (sep, new_child) ->
            let seps = array_insert seps i sep
            and children = array_insert children (i + 1) new_child in
            if not (node_overfull t seps children) then begin
              write_node t page (Node { seps; children });
              None
            end
            else begin
              let m = Array.length seps / 2 in
              let right =
                Node
                  {
                    seps = sub seps (m + 1) (Array.length seps - m - 1);
                    children = sub children (m + 1) (Array.length children - m - 1);
                  }
              in
              let right_id = Pager.alloc t.pager right in
              write_node t page
                (Node { seps = sub seps 0 m; children = sub children 0 (m + 1) });
              Some (seps.(m), right_id)
            end)

  let insert t k v =
    (match insert_rec t t.root k v with
    | None -> ()
    | Some (sep, right_id) ->
        let new_root =
          Node { seps = [| sep |]; children = [| t.root; right_id |] }
        in
        t.root <- Pager.alloc t.pager new_root);
    t.size <- t.size + 1

  (* {2 Deletion with rebalancing} *)

  (* Budget-mode trees are bulk-built; deletion keeps them structurally
     sound (empty leaves and single-child nodes are cleaned up) without
     chasing a byte-occupancy target. *)
  let leaf_min t =
    match t.budget with Some _ -> 1 | None -> max 1 (t.leaf_capacity / 2)

  let node_min t =
    match t.budget with Some _ -> 2 | None -> max 2 (t.internal_capacity / 2)

  let node_size = function
    | Leaf { keys; _ } -> Array.length keys
    | Node { children; _ } -> Array.length children

  let underfull t = function
    | Leaf _ as n -> node_size n < leaf_min t
    | Node _ as n -> node_size n < node_min t

  (* Rebalance children.(i) of the internal node at [page], which may have
     become underfull.  Reads go through the pool but not the counters
     (maintenance, not query work, though physical I/O is still counted). *)
  let fix_child t page i =
    match Pool.get t.pool page with
    | Leaf _ -> assert false
    | Node { seps; children } ->
        let child = Pool.get t.pool children.(i) in
        if not (underfull t child) then ()
        else begin
          (* Prefer the left sibling; fall back to the right one. *)
          let li, ri = if i > 0 then (i - 1, i) else (i, i + 1) in
          let left_id = children.(li) and right_id = children.(ri) in
          let left = Pool.get t.pool left_id and right = Pool.get t.pool right_id in
          match (left, right) with
          | Leaf l, Leaf r ->
              let nl = Array.length l.keys and nr = Array.length r.keys in
              if i = ri && nl > leaf_min t then begin
                (* Borrow the left sibling's last entry. *)
                let k = l.keys.(nl - 1) and v = l.vals.(nl - 1) in
                write_node t left_id
                  (Leaf { l with keys = sub l.keys 0 (nl - 1); vals = sub l.vals 0 (nl - 1) });
                write_node t right_id
                  (Leaf { r with keys = array_insert r.keys 0 k; vals = array_insert r.vals 0 v });
                let sep = Key.separator ~lo:l.keys.(nl - 2) ~hi:k in
                write_node t page (Node { seps = Array.mapi (fun j s -> if j = li then sep else s) seps; children })
              end
              else if i = li && nr > leaf_min t then begin
                (* Borrow the right sibling's first entry. *)
                let k = r.keys.(0) and v = r.vals.(0) in
                write_node t right_id
                  (Leaf { r with keys = sub r.keys 1 (nr - 1); vals = sub r.vals 1 (nr - 1) });
                write_node t left_id
                  (Leaf { l with keys = Array.append l.keys [| k |]; vals = Array.append l.vals [| v |] });
                let sep = Key.separator ~lo:k ~hi:r.keys.(1) in
                write_node t page (Node { seps = Array.mapi (fun j s -> if j = li then sep else s) seps; children })
              end
              else begin
                (* Merge right into left. *)
                write_node t left_id
                  (Leaf
                     {
                       keys = Array.append l.keys r.keys;
                       vals = Array.append l.vals r.vals;
                       next = r.next;
                     });
                free_node t right_id;
                write_node t page
                  (Node { seps = array_remove seps li; children = array_remove children ri })
              end
          | Node l, Node r ->
              let nl = Array.length l.children and nr = Array.length r.children in
              let psep = seps.(li) in
              if i = ri && nl > node_min t then begin
                (* Rotate right through the parent. *)
                let moved_child = l.children.(nl - 1) and moved_sep = l.seps.(nl - 2) in
                write_node t left_id
                  (Node { seps = sub l.seps 0 (nl - 2); children = sub l.children 0 (nl - 1) });
                write_node t right_id
                  (Node
                     {
                       seps = array_insert r.seps 0 psep;
                       children = array_insert r.children 0 moved_child;
                     });
                write_node t page
                  (Node { seps = Array.mapi (fun j s -> if j = li then moved_sep else s) seps; children })
              end
              else if i = li && nr > node_min t then begin
                (* Rotate left through the parent. *)
                let moved_child = r.children.(0) and moved_sep = r.seps.(0) in
                write_node t right_id
                  (Node { seps = sub r.seps 1 (nr - 2); children = sub r.children 1 (nr - 1) });
                write_node t left_id
                  (Node
                     {
                       seps = Array.append l.seps [| psep |];
                       children = Array.append l.children [| moved_child |];
                     });
                write_node t page
                  (Node { seps = Array.mapi (fun j s -> if j = li then moved_sep else s) seps; children })
              end
              else begin
                (* Merge right into left around the parent separator. *)
                write_node t left_id
                  (Node
                     {
                       seps = Array.concat [ l.seps; [| psep |]; r.seps ];
                       children = Array.append l.children r.children;
                     });
                free_node t right_id;
                write_node t page
                  (Node { seps = array_remove seps li; children = array_remove children ri })
              end
          | Leaf _, Node _ | Node _, Leaf _ -> assert false
        end

  let rec delete_rec t page k =
    match read_node t page with
    | Leaf { keys; vals; next } ->
        let i = lower_bound keys k in
        if i < Array.length keys && Key.compare keys.(i) k = 0 then begin
          write_node t page
            (Leaf { keys = array_remove keys i; vals = array_remove vals i; next });
          true
        end
        else false
    | Node { seps; children } ->
        let i = route seps k in
        let found = delete_rec t children.(i) k in
        if found then fix_child t page i;
        found

  let delete t k =
    let found = delete_rec t t.root k in
    if found then begin
      t.size <- t.size - 1;
      (* Collapse a root with a single child. *)
      match Pool.get t.pool t.root with
      | Node { children = [| only |]; _ } ->
          let old = t.root in
          t.root <- only;
          free_node t old
      | Node _ | Leaf _ -> ()
    end;
    found

  (* {2 Bulk loading} *)

  let bulk_load ?(fill = 1.0) t entries =
    if t.size <> 0 then invalid_arg "Bptree.bulk_load: tree not empty";
    if fill <= 0.0 || fill > 1.0 then invalid_arg "Bptree.bulk_load: bad fill";
    let n = Array.length entries in
    for i = 1 to n - 1 do
      if Key.compare (fst entries.(i - 1)) (fst entries.(i)) > 0 then
        invalid_arg "Bptree.bulk_load: input not sorted"
    done;
    if n = 0 then ()
    else begin
      let per_leaf = max 2 (int_of_float (fill *. float_of_int t.leaf_capacity)) in
      (* Where a leaf starting at [s] would end: a fixed entry count, or
         in budget mode the longest prefix fitting [fill] of the byte
         budget (always at least 2 entries). *)
      let leaf_stop s =
        match t.budget with
        | None -> min n (s + per_leaf)
        | Some b ->
            let target = fill *. float_of_int b.page_bytes in
            let bytes = ref 0 and j = ref s in
            let fits () =
              let k = fst entries.(!j) in
              let c =
                b.entry_overhead
                +
                if not b.compressed then b.fixed_entry_bytes
                else if !j = s then Key.encoded_bytes k
                else Key.delta_bytes ~prev:(fst entries.(!j - 1)) k
              in
              if !j - s >= 2 && float_of_int (!bytes + c) > target then false
              else begin
                bytes := !bytes + c;
                true
              end
            in
            while !j < n && fits () do
              incr j
            done;
            !j
      in
      (* Chunk into leaves; never split a run of equal keys across leaves. *)
      let chunks = ref [] in
      let start = ref 0 in
      while !start < n do
        let stop = ref (leaf_stop !start) in
        while
          !stop < n && !stop > !start + 1 && Key.compare (fst entries.(!stop - 1)) (fst entries.(!stop)) = 0
        do
          decr stop
        done;
        (* If the whole chunk is one equal run, extend instead. *)
        (if !stop < n && Key.compare (fst entries.(!stop - 1)) (fst entries.(!stop)) = 0 then
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
      let chunks = List.rev !chunks in
      (* Build leaves left to right, chaining next pointers afterwards via
         a second pass (alloc order is left to right so we can link as we
         go by patching the previous leaf). *)
      let leaves =
        List.map
          (fun (s, e) ->
            let keys = Array.init (e - s) (fun i -> fst entries.(s + i))
            and vals = Array.init (e - s) (fun i -> snd entries.(s + i)) in
            let id = Pager.alloc t.pager (Leaf { keys; vals; next = None }) in
            (id, keys.(0), keys.(Array.length keys - 1)))
          chunks
      in
      let rec link = function
        | (id, _, _) :: ((next_id, _, _) :: _ as rest) ->
            (match Pool.get t.pool id with
            | Leaf l -> write_node t id (Leaf { l with next = Some next_id })
            | Node _ -> assert false);
            link rest
        | _ -> ()
      in
      link leaves;
      (* Build internal levels. *)
      let rec build level =
        match level with
        | [] -> assert false
        | [ (id, _, _) ] -> id
        | _ ->
            let groups =
              match t.budget with
              | None ->
                  let per_node = max 2 t.internal_capacity in
                  let rec group acc cur cur_n = function
                    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
                    | x :: rest ->
                        if cur_n = per_node then
                          group (List.rev cur :: acc) [ x ] 1 rest
                        else group acc (x :: cur) (cur_n + 1) rest
                  in
                  group [] [] 0 level
              | Some b ->
                  (* Greedy byte packing with the real separators: a new
                     child costs its pointer plus the separator against
                     the previous child. *)
                  let target = fill *. float_of_int b.page_bytes in
                  let rec group acc cur cur_n bytes prev_sep prev_max =
                    function
                    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
                    | ((_, rmin, rmax) as x) :: rest ->
                        if cur_n = 0 then group acc [ x ] 1 4 None rmax rest
                        else
                          let sep = Key.separator ~lo:prev_max ~hi:rmin in
                          let c =
                            4
                            +
                            if not b.compressed then b.fixed_entry_bytes
                            else
                              match prev_sep with
                              | None -> Key.encoded_bytes sep
                              | Some p -> Key.delta_bytes ~prev:p sep
                          in
                          if cur_n >= 2 && float_of_int (bytes + c) > target
                          then group (List.rev cur :: acc) [ x ] 1 4 None rmax rest
                          else
                            group acc (x :: cur) (cur_n + 1) (bytes + c)
                              (Some sep) rmax rest
                  in
                  let _, _, m0 = List.hd level in
                  group [] [] 0 0 None m0 level
            in
            (* Avoid a trailing 1-child group: rebalance with the previous
               group if needed. *)
            let groups =
              let rec fix = function
                | [ g1; [ single ] ] ->
                    let n1 = List.length g1 in
                    let keep = n1 - 1 in
                    let rec split i = function
                      | [] -> ([], [])
                      | x :: rest ->
                          if i = 0 then ([], x :: rest)
                          else
                            let a, b = split (i - 1) rest in
                            (x :: a, b)
                    in
                    let a, b = split keep g1 in
                    [ a; b @ [ single ] ]
                | g :: rest -> g :: fix rest
                | [] -> []
              in
              fix groups
            in
            let parents =
              List.map
                (fun group ->
                  let arr = Array.of_list group in
                  let children = Array.map (fun (id, _, _) -> id) arr in
                  let seps =
                    Array.init
                      (Array.length arr - 1)
                      (fun i ->
                        let _, _, lmax = arr.(i) and _, rmin, _ = arr.(i + 1) in
                        Key.separator ~lo:lmax ~hi:rmin)
                  in
                  let id = Pager.alloc t.pager (Node { seps; children }) in
                  let _, fmin, _ = arr.(0)
                  and _, _, lmax = arr.(Array.length arr - 1) in
                  (id, fmin, lmax))
                groups
            in
            build parents
      in
      let new_root = build leaves in
      let old_root = t.root in
      t.root <- new_root;
      free_node t old_root;
      t.size <- n
    end

  (* {2 Queries} *)

  let rec find_leaf t page k =
    match read_node t page with
    | Leaf l -> (page, l.keys, l.vals, l.next)
    | Node { seps; children } -> find_leaf t children.(route seps k) k

  let find t k =
    let _, keys, vals, _ = find_leaf t t.root k in
    let i = lower_bound keys k in
    if i < Array.length keys && Key.compare keys.(i) k = 0 then Some vals.(i)
    else None

  let mem t k = Option.is_some (find t k)

  type 'a cursor = {
    tree : 'a t;
    mutable page : Pager.page_id option;
    mutable keys : Key.t array;
    mutable vals : 'a array;
    mutable next : Pager.page_id option;
    mutable idx : int;
  }

  let load_leaf c page =
    match read_node c.tree page with
    | Leaf l ->
        c.page <- Some page;
        c.keys <- l.keys;
        c.vals <- l.vals;
        c.next <- l.next;
        c.idx <- 0
    | Node _ -> assert false

  let rec skip_empty c =
    if c.idx >= Array.length c.keys then
      match c.next with
      | None -> c.page <- None
      | Some next ->
          load_leaf c next;
          skip_empty c

  let seek t k =
    let page, keys, vals, next = find_leaf t t.root k in
    let c = { tree = t; page = Some page; keys; vals; next; idx = lower_bound keys k } in
    skip_empty c;
    c

  let rec leftmost t page =
    match read_node t page with
    | Leaf _ -> page
    | Node { children; _ } -> leftmost t children.(0)

  let seek_first t =
    let page = leftmost t t.root in
    let c = { tree = t; page = Some page; keys = [||]; vals = [||]; next = None; idx = 0 } in
    load_leaf c page;
    skip_empty c;
    c

  let cursor_peek c =
    match c.page with
    | None -> None
    | Some _ -> Some (c.keys.(c.idx), c.vals.(c.idx))

  let cursor_next c =
    match c.page with
    | None -> ()
    | Some _ ->
        c.idx <- c.idx + 1;
        skip_empty c

  let cursor_page c = c.page

  let find_all t k =
    let c = seek t k in
    let rec go acc =
      match cursor_peek c with
      | Some (k', v) when Key.compare k' k = 0 ->
          cursor_next c;
          go (v :: acc)
      | Some _ | None -> List.rev acc
    in
    go []

  let iter t f =
    let c = seek_first t in
    let rec go () =
      match cursor_peek c with
      | None -> ()
      | Some (k, v) ->
          f k v;
          cursor_next c;
          go ()
    in
    go ()

  let to_list t =
    let acc = ref [] in
    iter t (fun k v -> acc := (k, v) :: !acc);
    List.rev !acc

  let rec height_rec t page =
    match Pool.get t.pool page with
    | Leaf _ -> 1
    | Node { children; _ } -> 1 + height_rec t children.(0)

  let height t = height_rec t t.root

  let rec count_leaves t page =
    match Pool.get t.pool page with
    | Leaf _ -> 1
    | Node { children; _ } ->
        Array.fold_left (fun acc c -> acc + count_leaves t c) 0 children

  let leaf_count t = count_leaves t t.root

  let leaf_pages t =
    (* Inspection only: snapshot the counters and restore them. *)
    let stats = io_stats t in
    let before = Sqp_storage.Stats.snapshot stats in
    let cb = { leaf_reads = t.counters.leaf_reads; internal_reads = t.counters.internal_reads } in
    let first = leftmost t t.root in
    let rec walk page acc =
      match Pool.get t.pool page with
      | Node _ -> assert false
      | Leaf { keys; next; _ } -> (
          let acc = (page, Array.to_list keys) :: acc in
          match next with None -> List.rev acc | Some n -> walk n acc)
    in
    let result = walk first [] in
    stats.physical_reads <- before.physical_reads;
    stats.physical_writes <- before.physical_writes;
    stats.pool_hits <- before.pool_hits;
    stats.pool_misses <- before.pool_misses;
    t.counters.leaf_reads <- cb.leaf_reads;
    t.counters.internal_reads <- cb.internal_reads;
    result

  (* {2 Compression accounting} *)

  (* Inspection-only leaf count: snapshot and restore the pool/I-O
     counters the walk would otherwise perturb. *)
  let quiet_leaf_count t =
    let stats = io_stats t in
    let before = Sqp_storage.Stats.snapshot stats in
    let n = count_leaves t t.root in
    stats.physical_reads <- before.physical_reads;
    stats.physical_writes <- before.physical_writes;
    stats.pool_hits <- before.pool_hits;
    stats.pool_misses <- before.pool_misses;
    n

  let avg_leaf_entries t = float_of_int t.size /. float_of_int (quiet_leaf_count t)

  type compression = {
    leaves : int;
    entries : int;
    avg_entries_per_leaf : float;
    fixed_entries_per_leaf : float;
    ratio : float;
  }

  let compression_stats t =
    match t.budget with
    | None -> None
    | Some b ->
        let leaves = quiet_leaf_count t in
        let entries = t.size in
        let avg = float_of_int entries /. float_of_int (max 1 leaves) in
        let fixed =
          float_of_int b.page_bytes
          /. float_of_int (b.fixed_entry_bytes + b.entry_overhead)
        in
        Some
          {
            leaves;
            entries;
            avg_entries_per_leaf = avg;
            fixed_entries_per_leaf = fixed;
            ratio = avg /. fixed;
          }

  (* {2 Invariant checking} *)

  let check_invariants t =
    let exception Bad of string in
    let fail fmt = Format.kasprintf (fun s -> raise (Bad s)) fmt in
    let check_sorted keys what =
      for i = 1 to Array.length keys - 1 do
        if Key.compare keys.(i - 1) keys.(i) > 0 then
          fail "%s: keys out of order at %d" what i
      done
    in
    (* Returns (depth, count, min_key, max_key) of the subtree; bounds are
       the separator interval the subtree must respect. *)
    let rec walk page lo hi ~is_root =
      match Pool.get t.pool page with
      | Leaf { keys; vals; _ } ->
          if Array.length keys <> Array.length vals then
            fail "leaf %d: keys/vals length mismatch" page;
          check_sorted keys (Printf.sprintf "leaf %d" page);
          let n = Array.length keys in
          (* Leaf occupancy is a soft bound: a split inside a run of equal
             keys can legally leave a slim sibling (see leaf_split_point),
             so only emptiness is structural. *)
          if (not is_root) && n < 1 then fail "leaf %d empty" page;
          let overfull =
            match t.budget with
            | None -> n > t.leaf_capacity
            | Some b -> n > 2 && leaf_bytes b keys > b.page_bytes
          in
          if overfull then begin
            (* Oversized leaves are only legal when all keys are equal. *)
            let all_equal =
              n = 0 || Array.for_all (fun k -> Key.compare k keys.(0) = 0) keys
            in
            if not all_equal then fail "leaf %d overfull (%d)" page n
          end;
          Array.iter
            (fun k ->
              (match lo with
              | Some b when Key.compare k b < 0 ->
                  fail "leaf %d: key below separator bound" page
              | _ -> ());
              match hi with
              | Some b when Key.compare k b >= 0 ->
                  fail "leaf %d: key above separator bound" page
              | _ -> ())
            keys;
          (1, n)
      | Node { seps; children } ->
          let nc = Array.length children in
          if nc <> Array.length seps + 1 then
            fail "node %d: children/seps arity mismatch" page;
          if nc < 2 then fail "node %d: fewer than 2 children" page;
          if (not is_root) && nc < node_min t then fail "node %d underfull" page;
          (match t.budget with
          | None -> if nc > t.internal_capacity then fail "node %d overfull" page
          | Some b ->
              if nc > 3 && node_bytes b seps nc > b.page_bytes then
                fail "node %d overfull (%d bytes)" page (node_bytes b seps nc));
          check_sorted seps (Printf.sprintf "node %d" page);
          (match (lo, hi) with
          | Some l, _ when Key.compare seps.(0) l < 0 -> fail "node %d: sep below bound" page
          | _, Some h when Key.compare seps.(Array.length seps - 1) h > 0 ->
              fail "node %d: sep above bound" page
          | _ -> ());
          let depth = ref 0 and count = ref 0 in
          for i = 0 to nc - 1 do
            let clo = if i = 0 then lo else Some seps.(i - 1)
            and chi = if i = nc - 1 then hi else Some seps.(i) in
            let d, c = walk children.(i) clo chi ~is_root:false in
            if !depth = 0 then depth := d
            else if d <> !depth then fail "node %d: uneven leaf depth" page;
            count := !count + c
          done;
          (!depth + 1, !count)
    in
    match walk t.root None None ~is_root:true with
    | _, count ->
        if count <> t.size then Error (Printf.sprintf "size mismatch: %d vs %d" count t.size)
        else Ok ()
    | exception Bad msg -> Error msg
end
