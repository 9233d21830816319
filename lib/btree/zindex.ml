module Z = Sqp_zorder
module Tree = Bptree.Make (Bptree.Bitstring_key)

type 'a t = {
  space : Z.Space.t;
  tree : (Sqp_geom.Point.t * 'a) Tree.t;
  leaf_capacity : int;
}

type strategy = Merge | Lazy_merge | Bigmin | Scan

type query_stats = {
  data_pages : int;
  leaf_accesses : int;
  internal_accesses : int;
  elements : int;
  entries_scanned : int;
  results : int;
  pool_hits : int;
  pool_misses : int;
}

let default_value_bytes = 8

let create ?policy ?pool_capacity ?(leaf_capacity = 20) ?(internal_capacity = 20)
    ?page_budget ?(compressed = true) ?(value_bytes = default_value_bytes) space =
  let budget =
    Option.map
      (fun page_bytes ->
        (* Per-entry overhead: payload charge plus a 2-byte length slot,
           matching the v3 on-disk entry; fixed-width keys are charged
           4 bytes per coordinate. *)
        {
          Bptree.page_bytes;
          compressed;
          entry_overhead = 2 + value_bytes;
          fixed_entry_bytes = 4 * Z.Space.dims space;
        })
      page_budget
  in
  {
    space;
    tree =
      Tree.create ?policy ?pool_capacity ?budget ~leaf_capacity
        ~internal_capacity ();
    leaf_capacity;
  }

let space t = t.space

let zval t p = Z.Interleave.shuffle t.space p

let of_points ?policy ?pool_capacity ?leaf_capacity ?internal_capacity
    ?page_budget ?compressed ?value_bytes ?fill space points =
  let t =
    create ?policy ?pool_capacity ?leaf_capacity ?internal_capacity ?page_budget
      ?compressed ?value_bytes space
  in
  let entries =
    Array.map (fun (p, v) -> (Z.Interleave.shuffle space p, (p, v))) points
  in
  Array.sort (fun (a, _) (b, _) -> Z.Bitstring.compare a b) entries;
  Tree.bulk_load ?fill t.tree entries;
  t

let insert t p v = Tree.insert t.tree (zval t p) (p, v)

let delete t p = Tree.delete t.tree (zval t p)

let find t p = Option.map snd (Tree.find t.tree (zval t p))

let length t = Tree.length t.tree

let data_page_count t = Tree.leaf_count t.tree

let leaf_capacity t = t.leaf_capacity

let page_budget t = Option.map (fun b -> b.Bptree.page_bytes) (Tree.budget t.tree)

let compressed t =
  match Tree.budget t.tree with Some b -> b.Bptree.compressed | None -> false

let avg_leaf_entries t = Tree.avg_leaf_entries t.tree

type compression = Tree.compression = {
  leaves : int;
  entries : int;
  avg_entries_per_leaf : float;
  fixed_entries_per_leaf : float;
  ratio : float;
}

let compression_stats t = Tree.compression_stats t.tree

let tree t = t.tree

(* {2 Search} *)

type 'a query_state = {
  mutable pages : int list;       (* distinct leaf pages, most recent first *)
  mutable page_set : (int, unit) Hashtbl.t;
  mutable scanned : int;
  mutable elements_used : int;
  mutable acc : (Sqp_geom.Point.t * 'a) list;
  hits0 : int;                    (* buffer-pool baseline at query start *)
  misses0 : int;
}

let new_state t =
  let io = Tree.io_stats t.tree in
  {
    pages = [];
    page_set = Hashtbl.create 16;
    scanned = 0;
    elements_used = 0;
    acc = [];
    hits0 = io.Sqp_storage.Stats.pool_hits;
    misses0 = io.Sqp_storage.Stats.pool_misses;
  }

let note_page st cursor =
  match Tree.cursor_page cursor with
  | None -> ()
  | Some id ->
      if not (Hashtbl.mem st.page_set id) then begin
        Hashtbl.replace st.page_set id ();
        st.pages <- id :: st.pages
      end

(* The merge of Section 3.3 over an arbitrary z-ordered element sequence
   (eager list or lazy generator).  [reseek_elements] implements the
   "random access to B" direction: given the current point z value it
   must yield the element sequence starting at the first element not
   wholly before that z value. *)
let merge_with_elements t st box_contains elements ~reseek_elements =
  let total = Z.Space.total_bits t.space in
  let zhi_of e = Z.Bitstring.pad_to e total true in
  let zlo_of e = Z.Bitstring.pad_to e total false in
  let cursor = ref None in
  let seek_at z =
    let c = Tree.seek t.tree z in
    cursor := Some c;
    note_page st c;
    c
  in
  let rec loop c elements =
    match Tree.cursor_peek c with
    | None -> ()
    | Some (z, (p, v)) -> (
        st.scanned <- st.scanned + 1;
        (* Advance the element sequence past elements wholly before z. *)
        match Seq.uncons elements with
        | None -> ()
        | Some (e, rest) ->
            if Z.Bitstring.compare (zhi_of e) z < 0 then begin
              (* Random access into B: skip dead elements wholesale. *)
              let elements = reseek_elements z in
              loop c elements
            end
            else if Z.Bitstring.compare z (zlo_of e) < 0 then begin
              (* Random access into P: jump the cursor forward. *)
              let c = seek_at (zlo_of e) in
              loop c (Seq.cons e rest)
            end
            else begin
              (* zlo <= z <= zhi: the point is inside element e. *)
              if box_contains p then st.acc <- (p, v) :: st.acc;
              note_page st c;
              Tree.cursor_next c;
              note_page st c;
              loop c (Seq.cons e rest)
            end)
  in
  match Seq.uncons elements with
  | None -> ()
  | Some (e, rest) ->
      let c = seek_at (zlo_of e) in
      loop c (Seq.cons e rest)

let finish t st =
  let counters = Tree.counters t.tree in
  let io = Tree.io_stats t.tree in
  let results = List.length st.acc in
  ( List.rev st.acc,
    {
      data_pages = Hashtbl.length st.page_set;
      leaf_accesses = counters.Tree.leaf_reads;
      internal_accesses = counters.Tree.internal_reads;
      elements = st.elements_used;
      entries_scanned = st.scanned;
      results;
      pool_hits = io.Sqp_storage.Stats.pool_hits - st.hits0;
      pool_misses = io.Sqp_storage.Stats.pool_misses - st.misses0;
    } )

let range_search ?(strategy = Merge) t box =
  if Sqp_geom.Box.dims box <> Z.Space.dims t.space then
    invalid_arg "Zindex.range_search: dimension mismatch";
  Tree.reset_counters t.tree;
  let st = new_state t in
  let box =
    match Sqp_geom.Box.clip box ~side:(Z.Space.side t.space) with
    | Some b -> Some b
    | None -> None
  in
  match box with
  | None -> finish t st
  | Some box -> (
      let contains p = Sqp_geom.Box.contains_point box p in
      let lo = Sqp_geom.Box.lo box and hi = Sqp_geom.Box.hi box in
      match strategy with
      | Merge ->
          let els = Z.Decompose.decompose_box t.space ~lo ~hi in
          st.elements_used <- List.length els;
          let arr = Array.of_list els in
          let total = Z.Space.total_bits t.space in
          let zhis = Array.map (fun e -> Z.Bitstring.pad_to e total true) arr in
          (* Binary search: first element whose zhi >= z. *)
          let reseek z =
            let lo = ref 0 and hi = ref (Array.length arr) in
            while !lo < !hi do
              let mid = (!lo + !hi) / 2 in
              if Z.Bitstring.compare zhis.(mid) z < 0 then lo := mid + 1 else hi := mid
            done;
            let start = !lo in
            Seq.init (Array.length arr - start) (fun i -> arr.(start + i))
          in
          merge_with_elements t st contains (List.to_seq els) ~reseek_elements:reseek;
          finish t st
      | Lazy_merge ->
          let classify = Z.Decompose.box_classifier t.space ~lo ~hi in
          let counted seq =
            Seq.map
              (fun e ->
                st.elements_used <- st.elements_used + 1;
                e)
              seq
          in
          let reseek z = counted (Z.Decompose.seq_from t.space classify z) in
          merge_with_elements t st contains
            (counted (Z.Decompose.to_seq t.space classify))
            ~reseek_elements:reseek;
          finish t st
      | Bigmin ->
          let total = Z.Space.total_bits t.space in
          let c = ref (Tree.seek t.tree (Z.Interleave.shuffle t.space lo)) in
          note_page st !c;
          let rec loop () =
            match Tree.cursor_peek !c with
            | None -> ()
            | Some (zbs, (p, v)) -> (
                st.scanned <- st.scanned + 1;
                let z = Z.Bitstring.to_int zbs in
                match Z.Bigmin.bigmin t.space ~lo ~hi z with
                | None -> ()
                | Some z' when z' = z ->
                    st.acc <- (p, v) :: st.acc;
                    Tree.cursor_next !c;
                    note_page st !c;
                    loop ()
                | Some z' ->
                    st.elements_used <- st.elements_used + 1;
                    c := Tree.seek t.tree (Z.Bitstring.of_int z' ~width:total);
                    note_page st !c;
                    loop ())
          in
          loop ();
          finish t st
      | Scan ->
          let c = Tree.seek_first t.tree in
          note_page st c;
          let rec loop () =
            match Tree.cursor_peek c with
            | None -> ()
            | Some (_, (p, v)) ->
                st.scanned <- st.scanned + 1;
                if contains p then st.acc <- (p, v) :: st.acc;
                note_page st c;
                Tree.cursor_next c;
                note_page st c;
                loop ()
          in
          loop ();
          finish t st)

let partial_match ?strategy t specs =
  let k = Z.Space.dims t.space in
  if Array.length specs <> k then invalid_arg "Zindex.partial_match: arity";
  let side = Z.Space.side t.space in
  let lo = Array.map (function Some v -> v | None -> 0) specs
  and hi = Array.map (function Some v -> v | None -> side - 1) specs in
  range_search ?strategy t (Sqp_geom.Box.make ~lo ~hi)

let add_stats a b =
  {
    data_pages = a.data_pages + b.data_pages;
    leaf_accesses = a.leaf_accesses + b.leaf_accesses;
    internal_accesses = a.internal_accesses + b.internal_accesses;
    elements = a.elements + b.elements;
    entries_scanned = a.entries_scanned + b.entries_scanned;
    results = a.results + b.results;
    pool_hits = a.pool_hits + b.pool_hits;
    pool_misses = a.pool_misses + b.pool_misses;
  }

let box_around t center radius =
  let r = int_of_float (ceil radius) in
  let side = Z.Space.side t.space in
  let clamp v = max 0 (min (side - 1) v) in
  Sqp_geom.Box.make
    ~lo:(Array.map (fun c -> clamp (c - r)) center)
    ~hi:(Array.map (fun c -> clamp (c + r)) center)

let dist2 a b =
  let acc = ref 0.0 in
  Array.iteri
    (fun i ai ->
      let d = float_of_int (ai - b.(i)) in
      acc := !acc +. (d *. d))
    a;
  !acc

let within_distance ?strategy t center ~radius =
  if radius < 0.0 then invalid_arg "Zindex.within_distance: negative radius";
  let results, stats = range_search ?strategy t (box_around t center radius) in
  let kept = List.filter (fun (p, _) -> dist2 p center <= radius *. radius) results in
  (kept, { stats with results = List.length kept })

let nearest ?strategy t center =
  if length t = 0 then None
  else begin
    let side = Z.Space.side t.space in
    (* Grow the search box until a candidate is found, then once more to
       rule out a closer point hiding just outside the box: any point
       outside a box of (integer) radius r is at Euclidean distance > r
       from the centre. *)
    let stats = ref None in
    let merge s = stats := Some (match !stats with None -> s | Some a -> add_stats a s) in
    let best candidates =
      List.fold_left
        (fun acc (p, v) ->
          let d = dist2 p center in
          match acc with
          | Some (_, _, bd) when bd <= d -> acc
          | _ -> Some (p, v, d))
        None candidates
    in
    let rec grow r =
      let found, s = range_search ?strategy t (box_around t center (float_of_int r)) in
      merge s;
      match best found with
      | Some (p, v, d) ->
          let safe = float_of_int r *. float_of_int r in
          if d <= safe || r >= 2 * side then ((p, v), d)
          else begin
            (* The candidate might not be the true nearest: search the box
               that provably encloses the candidate's distance. *)
            let r' = int_of_float (ceil (sqrt d)) in
            let found', s' = range_search ?strategy t (box_around t center (float_of_int r')) in
            merge s';
            match best found' with
            | Some (p', v', _) -> ((p', v'), 0.0)
            | None -> ((p, v), d)
          end
      | None -> grow (max 1 (2 * r))
    in
    let (p, v), _ = grow 1 in
    match !stats with Some s -> Some ((p, v), s) | None -> None
  end

let k_nearest ?strategy t center ~k =
  if k < 0 then invalid_arg "Zindex.k_nearest: negative k";
  if k = 0 || length t = 0 then
    ( [],
      {
        data_pages = 0;
        leaf_accesses = 0;
        internal_accesses = 0;
        elements = 0;
        entries_scanned = 0;
        results = 0;
        pool_hits = 0;
        pool_misses = 0;
      } )
  else begin
    let side = Z.Space.side t.space in
    let stats = ref None in
    let merge s =
      stats := Some (match !stats with None -> s | Some a -> add_stats a s)
    in
    let sorted found =
      List.sort
        (fun (p, _) (q, _) -> compare (dist2 p center, p) (dist2 q center, q))
        found
    in
    let rec grow r =
      let found, s = range_search ?strategy t (box_around t center (float_of_int r)) in
      merge s;
      let have = List.length found in
      if have >= k || r >= 2 * side then begin
        let best = sorted found in
        let rec take n = function
          | [] -> []
          | x :: rest -> if n = 0 then [] else x :: take (n - 1) rest
        in
        let candidates = take k best in
        (* The k-th candidate's distance may exceed the guaranteed radius;
           one more search at that distance settles it. *)
        match List.rev candidates with
        | [] -> []
        | (far, _) :: _ ->
            let d = sqrt (dist2 far center) in
            if (d <= float_of_int r && have >= k) || r >= 2 * side then candidates
            else begin
              let r' = int_of_float (ceil d) in
              let found', s' =
                range_search ?strategy t (box_around t center (float_of_int r'))
              in
              merge s';
              take k (sorted found')
            end
      end
      else grow (max 1 (2 * r))
    in
    let result = grow 1 in
    let s = Option.get !stats in
    (result, { s with results = List.length result })
  end

let efficiency t stats =
  if stats.data_pages = 0 then 0.0
  else
    (* Budget-mode trees have no fixed slot count; use the measured
       effective capacity instead. *)
    let cap =
      match Tree.budget t.tree with
      | None -> float_of_int t.leaf_capacity
      | Some _ -> max 1.0 (Tree.avg_leaf_entries t.tree)
    in
    float_of_int stats.results /. (float_of_int stats.data_pages *. cap)

let leaf_points t =
  List.map
    (fun (page, keys) ->
      (page, List.map (fun z -> Array.map fst (Z.Interleave.unshuffle t.space z)) keys))
    (Tree.leaf_pages t.tree)

let io_stats t = Tree.io_stats t.tree
