(* Differential-testing oracle suite.

   One seeded harness generates random point sets and query boxes, and
   every range-search engine in the repository must agree on every query:
   Linear_scan (the trivial oracle), the in-memory merges (plain and
   skip), the zkd B+-tree (all four strategies) and the bucket kd-tree.
   Likewise the relational spatial join must match its bitstring
   reference sweep exactly (rows in order, and counters) on every kind
   of batch its kernel distinguishes, and the nested-loop oracle as a
   multiset. *)

module Z = Sqp_zorder
module B = Z.Bitstring
module W = Sqp_workload
module RS = Sqp_core.Range_search
module Zindex = Sqp_btree.Zindex

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* Results come back in engine-specific orders (z order, scan order,
   tree order); compare as canonically sorted lists.  Generators produce
   distinct points, so sorting by (point, payload) is a total order. *)
let canon results = List.sort compare results

let random_box rng side =
  let x1 = W.Rng.int rng side and x2 = W.Rng.int rng side in
  let y1 = W.Rng.int rng side and y2 = W.Rng.int rng side in
  Sqp_geom.Box.make ~lo:[| min x1 x2; min y1 y2 |] ~hi:[| max x1 x2; max y1 y2 |]

let range_case ~name ~dataset ~depth ~n ~queries ~seed =
  let space = Z.Space.make ~dims:2 ~depth in
  let side = Z.Space.side space in
  let rng = W.Rng.create ~seed in
  let pts = W.Datagen.with_ids (W.Datagen.generate rng dataset ~side ~n) in
  let linear = Sqp_kdtree.Linear_scan.build ~page_capacity:20 pts in
  let prep = RS.prepare space pts in
  let index = Zindex.of_points ~leaf_capacity:20 space pts in
  let kd = Sqp_kdtree.Paged_kdtree.build ~page_capacity:20 pts in
  let qrng = W.Rng.create ~seed:(seed + 1) in
  for q = 1 to queries do
    let box = random_box qrng side in
    let expected = canon (fst (Sqp_kdtree.Linear_scan.range_search linear box)) in
    let engines =
      [
        ("mem-merge-plain", canon (fst (RS.search_plain prep box)));
        ("mem-merge-skip", canon (fst (RS.search_skip prep box)));
        ("zkd-merge", canon (fst (Zindex.range_search ~strategy:Zindex.Merge index box)));
        ( "zkd-lazy",
          canon (fst (Zindex.range_search ~strategy:Zindex.Lazy_merge index box)) );
        ("zkd-bigmin", canon (fst (Zindex.range_search ~strategy:Zindex.Bigmin index box)));
        ("zkd-scan", canon (fst (Zindex.range_search ~strategy:Zindex.Scan index box)));
        ("paged-kdtree", canon (fst (Sqp_kdtree.Paged_kdtree.range_search kd box)));
      ]
    in
    List.iter
      (fun (engine, got) ->
        if got <> expected then
          Alcotest.failf "%s: %s disagrees with linear scan on query %d (%d vs %d results)"
            name engine q (List.length got) (List.length expected))
      engines
  done

let test_range_uniform () =
  range_case ~name:"uniform" ~dataset:W.Datagen.Uniform ~depth:6 ~n:300
    ~queries:70 ~seed:11

let test_range_clustered () =
  range_case ~name:"clustered" ~dataset:W.Datagen.Clustered ~depth:7 ~n:300
    ~queries:70 ~seed:22

let test_range_diagonal () =
  range_case ~name:"diagonal" ~dataset:W.Datagen.Diagonal ~depth:8 ~n:300
    ~queries:60 ~seed:33

(* The paper's extreme shapes: degenerate, full-space and border-hugging
   query boxes, against every engine. *)
let test_range_extreme_boxes () =
  let space = Z.Space.make ~dims:2 ~depth:6 in
  let side = Z.Space.side space in
  let rng = W.Rng.create ~seed:5 in
  let pts = W.Datagen.with_ids (W.Datagen.uniform rng ~side ~n:250 ~dims:2) in
  let linear = Sqp_kdtree.Linear_scan.build pts in
  let prep = RS.prepare space pts in
  let index = Zindex.of_points ~leaf_capacity:20 space pts in
  let boxes =
    [
      Sqp_geom.Box.of_ranges [ (0, side - 1); (0, side - 1) ];       (* full space *)
      Sqp_geom.Box.of_ranges [ (17, 17); (42, 42) ];                 (* single cell *)
      Sqp_geom.Box.of_ranges [ (side - 1, side - 1); (0, side - 1) ];(* border column *)
      Sqp_geom.Box.of_ranges [ (0, side - 1); (side - 1, side - 1) ];(* border row *)
      Sqp_geom.Box.of_ranges [ (0, 0); (0, 0) ];                     (* origin cell *)
      Sqp_geom.Box.of_ranges [ (side - 1, side - 1); (side - 1, side - 1) ];
      Sqp_geom.Box.of_ranges [ (1, side - 2); (1, side - 2) ];       (* all-crossing *)
    ]
  in
  List.iter
    (fun box ->
      let expected = canon (fst (Sqp_kdtree.Linear_scan.range_search linear box)) in
      check "plain" true (canon (fst (RS.search_plain prep box)) = expected);
      check "skip" true (canon (fst (RS.search_skip prep box)) = expected);
      check "zkd" true (canon (fst (Zindex.range_search index box)) = expected))
    boxes

(* {1 Spatial join} *)

let concat a b = B.of_string (B.to_string a ^ B.to_string b)

(* [n] random z values built as random-length prefixes of [base] plus up
   to 6 random bits, so that containment pairs (within and across two
   batches of one base), equal values and every length up to
   [length base + 6] all occur. *)
let z_batch rng ~n base =
  List.init n (fun i ->
      let extra = B.init (W.Rng.int rng 7) (fun _ -> W.Rng.bool rng) in
      (concat (B.take base (W.Rng.int rng (B.length base + 1))) extra, i))

let join_inputs ~seed ~n ~max_level space =
  let side = Z.Space.side space in
  let rng = W.Rng.create ~seed in
  let objs tag =
    List.init n (fun i ->
        let w = 1 + W.Rng.int rng (side / 4) and h = 1 + W.Rng.int rng (side / 4) in
        let x = W.Rng.int rng (side - w) and y = W.Rng.int rng (side - h) in
        ( tag + i,
          Sqp_geom.Box.make ~lo:[| x; y |] ~hi:[| x + w - 1; y + h - 1 |] ))
  in
  let opts = { Z.Decompose.max_level = Some max_level; max_elements = None } in
  let tag_of objects =
    List.concat_map
      (fun (id, b) ->
        List.map
          (fun e -> (e, id))
          (Z.Decompose.decompose_box ~options:opts space ~lo:(Sqp_geom.Box.lo b)
             ~hi:(Sqp_geom.Box.hi b)))
      objects
  in
  (tag_of (objs 0), tag_of (objs 1000))

(* The relational join against its reference sweep on each kind of batch
   the kernel tells apart: batches under 64 items (comparison sort) and
   from 64 items (radix sort), and values too long to encode with their
   index (merge sort, up to a longest value of exactly 61 bits, the
   longest a bitstring holds).  Rows must agree in order; [pairs],
   [sorted_items] and [max_stack] always.  [comparisons] counts the
   path's own sort and sweep (a radix sort compares nothing), so it must
   equal [Zmerge.pairs]' count for the same z values, which runs the
   same kernel sorts and sweep. *)
let test_join_relation_level () =
  let module R = Sqp_relalg in
  let module SJ = R.Spatial_join in
  let schema_of name z =
    R.Schema.make [ (name, R.Value.TInt); (z, R.Value.TZval) ]
  in
  let rel_of name z items =
    R.Relation.make ~name (schema_of name z)
      (List.map (fun (e, id) -> [| R.Value.Int id; R.Value.Zval e |]) items)
  in
  let rng = W.Rng.create ~seed:55 in
  let base len = B.init len (fun _ -> W.Rng.bool rng) in
  let sides ~n ~m len =
    let b = base len in
    let left = z_batch rng ~n b in
    (left, z_batch rng ~n:m b)
  in
  let case name (left, right) = (name, left, right) in
  let kinds =
    [
      case "under 64 items" (sides ~n:30 ~m:50 20);
      case "64 items or more" (sides ~n:150 ~m:300 20);
      case "decomposed boxes"
        (join_inputs ~seed:55 ~n:25 ~max_level:8 (Z.Space.make ~dims:2 ~depth:5));
      case "narrow, merge sort" (sides ~n:80 ~m:90 55);
      (* z_batch adds at most 6 bits to the 55-bit base: the 61-bit
         value is the longest *)
      (let b = base 55 in
       let left = z_batch rng ~n:80 b in
       let at_61 = (concat b (B.of_string "101101"), 999) in
       case "longest value exactly 61 bits" (left, at_61 :: z_batch rng ~n:90 b));
    ]
  in
  List.iter
    (fun (kind, left, right) ->
      let r = rel_of "rid" "zr" left and s = rel_of "sid" "zs" right in
      let joined, st = SJ.merge r ~zr:"zr" s ~zs:"zs" in
      let joined_ref, st_ref = SJ.merge_reference r ~zr:"zr" s ~zs:"zs" in
      let naive, _ = SJ.nested_loop r ~zr:"zr" s ~zs:"zs" in
      if R.Relation.tuples joined <> R.Relation.tuples joined_ref then
        Alcotest.failf "%s: rows differ from the reference sweep" kind;
      check_int (kind ^ ": pairs") st_ref.SJ.pairs st.SJ.pairs;
      check_int (kind ^ ": sorted_items") st_ref.SJ.sorted_items st.SJ.sorted_items;
      check_int (kind ^ ": max_stack") st_ref.SJ.max_stack st.SJ.max_stack;
      check_int (kind ^ ": comparisons")
        (snd (Sqp_core.Zmerge.pairs left right)).Sqp_core.Zmerge.comparisons
        st.SJ.comparisons;
      check (kind ^ ": multiset equals nested loop") true
        (R.Relation.equal_contents joined naive))
    kinds

let () =
  Alcotest.run "differential"
    [
      ( "range search",
        [
          Alcotest.test_case "uniform dataset" `Quick test_range_uniform;
          Alcotest.test_case "clustered dataset" `Quick test_range_clustered;
          Alcotest.test_case "diagonal dataset" `Quick test_range_diagonal;
          Alcotest.test_case "extreme boxes" `Quick test_range_extreme_boxes;
        ] );
      ( "spatial join",
        [ Alcotest.test_case "relation level" `Quick test_join_relation_level ] );
    ]
