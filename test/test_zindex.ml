module Z = Sqp_zorder
module Zindex = Sqp_btree.Zindex
module W = Sqp_workload

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let space6 = Z.Space.make ~dims:2 ~depth:6

let strategies =
  [
    ("merge", Zindex.Merge);
    ("lazy", Zindex.Lazy_merge);
    ("bigmin", Zindex.Bigmin);
    ("scan", Zindex.Scan);
  ]

let build ?(n = 300) ?(seed = 17) ?(leaf_capacity = 20) space =
  let rng = W.Rng.create ~seed in
  let points = W.Datagen.uniform rng ~side:(Z.Space.side space) ~n ~dims:2 in
  Zindex.of_points ~leaf_capacity space (Array.mapi (fun i p -> (p, i)) points)

let brute index box =
  Zindex.Tree.to_list (Zindex.tree index)
  |> List.filter_map (fun (_, (p, v)) ->
         if Sqp_geom.Box.contains_point box p then Some (p, v) else None)
  |> List.sort (fun ((a : int array), _) (b, _) ->
         compare
           (Z.Interleave.rank space6 a, a)
           (Z.Interleave.rank space6 b, b))

let test_build () =
  let index = build space6 in
  check_int "length" 300 (Zindex.length index);
  check_int "pages at fill 1.0" 15 (Zindex.data_page_count index);
  match Zindex.Tree.check_invariants (Zindex.tree index) with
  | Ok () -> ()
  | Error m -> Alcotest.failf "invariants: %s" m

let test_find_insert_delete () =
  let index = Zindex.create space6 in
  Zindex.insert index [| 3; 5 |] "a";
  Zindex.insert index [| 10; 20 |] "b";
  check "find" true (Zindex.find index [| 3; 5 |] = Some "a");
  check "missing" true (Zindex.find index [| 4; 5 |] = None);
  check "delete" true (Zindex.delete index [| 3; 5 |]);
  check "gone" true (Zindex.find index [| 3; 5 |] = None);
  check "delete missing" false (Zindex.delete index [| 3; 5 |])

let test_all_strategies_agree () =
  let index = build space6 in
  let rng = W.Rng.create ~seed:3 in
  for _ = 1 to 60 do
    let x1 = W.Rng.int rng 64 and x2 = W.Rng.int rng 64 in
    let y1 = W.Rng.int rng 64 and y2 = W.Rng.int rng 64 in
    let box =
      Sqp_geom.Box.make ~lo:[| min x1 x2; min y1 y2 |] ~hi:[| max x1 x2; max y1 y2 |]
    in
    let expected = brute index box in
    List.iter
      (fun (name, strategy) ->
        let got, _ = Zindex.range_search ~strategy index box in
        if got <> expected then
          Alcotest.failf "strategy %s disagrees (%d vs %d results)" name
            (List.length got) (List.length expected))
      strategies
  done

let test_results_in_z_order () =
  let index = build space6 in
  let box = Sqp_geom.Box.of_ranges [ (5, 50); (10, 60) ] in
  let results, _ = Zindex.range_search index box in
  let ranks = List.map (fun (p, _) -> Z.Interleave.rank space6 p) results in
  check "sorted" true (List.sort compare ranks = ranks)

let test_empty_box_region () =
  let index = build space6 in
  (* A region with no points: corner query on an area kept empty. *)
  let results, stats =
    Zindex.range_search index (Sqp_geom.Box.of_ranges [ (0, 0); (0, 0) ])
  in
  check "at most 1 result" true (List.length results <= 1);
  check "few pages" true (stats.Zindex.data_pages <= 2)

let test_full_space_query () =
  let index = build space6 in
  let box = Sqp_geom.Box.of_ranges [ (0, 63); (0, 63) ] in
  let results, stats = Zindex.range_search index box in
  check_int "all points" 300 (List.length results);
  check_int "all pages" (Zindex.data_page_count index) stats.Zindex.data_pages;
  Alcotest.(check (float 0.001)) "efficiency 1.0" 1.0 (Zindex.efficiency index stats)

let test_out_of_grid_query () =
  let index = build space6 in
  let box = Sqp_geom.Box.of_ranges [ (100, 200); (100, 200) ] in
  let results, stats = Zindex.range_search index box in
  check_int "no results" 0 (List.length results);
  check_int "no pages" 0 stats.Zindex.data_pages;
  (* Partially outside: clipped, not failed. *)
  let box2 = Sqp_geom.Box.of_ranges [ (-5, 10); (50, 200) ] in
  let r2, _ = Zindex.range_search index box2 in
  let expected = brute index (Sqp_geom.Box.of_ranges [ (0, 10); (50, 63) ]) in
  check "clipped results" true (r2 = expected)

let test_partial_match () =
  let index = build space6 in
  (* Pin y: equivalent to the box y = c. *)
  let results, _ = Zindex.partial_match index [| None; Some 20 |] in
  let expected = brute index (Sqp_geom.Box.of_ranges [ (0, 63); (20, 20) ]) in
  check "pinned y" true (results = expected);
  (* No restriction at all = full scan. *)
  let all, _ = Zindex.partial_match index [| None; None |] in
  check_int "free query returns all" 300 (List.length all)

let test_stats_sane () =
  let index = build space6 in
  let box = Sqp_geom.Box.of_ranges [ (10, 30); (10, 30) ] in
  let _, stats = Zindex.range_search index box in
  check "pages <= leaf accesses" true (stats.Zindex.data_pages <= stats.Zindex.leaf_accesses);
  check "elements > 0" true (stats.Zindex.elements > 0);
  check "scanned >= results" true (stats.Zindex.entries_scanned >= stats.Zindex.results);
  (* Stats are per query: a second identical query reports the same. *)
  let _, stats2 = Zindex.range_search index box in
  check_int "data pages repeatable" stats.Zindex.data_pages stats2.Zindex.data_pages

let test_skip_beats_scan () =
  (* A small query must touch far fewer pages than a scan. *)
  let index = build ~n:1000 (Z.Space.make ~dims:2 ~depth:8) in
  let box = Sqp_geom.Box.of_ranges [ (10, 25); (10, 25) ] in
  let _, merge_stats = Zindex.range_search ~strategy:Zindex.Merge index box in
  let _, scan_stats = Zindex.range_search ~strategy:Zindex.Scan index box in
  check "merge reads fewer pages" true
    (merge_stats.Zindex.data_pages * 3 < scan_stats.Zindex.data_pages)

let test_leaf_points_cover_all () =
  let index = build space6 in
  let pages = Zindex.leaf_points index in
  let total = List.fold_left (fun acc (_, pts) -> acc + List.length pts) 0 pages in
  check_int "all points on pages" 300 total;
  check_int "page count matches" (Zindex.data_page_count index) (List.length pages)

let test_clustered_and_diagonal () =
  (* Strategies agree on skewed data too. *)
  let space = Z.Space.make ~dims:2 ~depth:7 in
  List.iter
    (fun ds ->
      let rng = W.Rng.create ~seed:5 in
      (* The diagonal band at side 128 only holds ~380 distinct cells. *)
      let points = W.Datagen.generate rng ds ~side:128 ~n:250 in
      let index = Zindex.of_points space (Array.mapi (fun i p -> (p, i)) points) in
      let box = Sqp_geom.Box.of_ranges [ (32, 96); (32, 96) ] in
      let reference, _ = Zindex.range_search ~strategy:Zindex.Scan index box in
      List.iter
        (fun (name, strategy) ->
          let got, _ = Zindex.range_search ~strategy index box in
          if got <> reference then Alcotest.failf "%s disagrees on skewed data" name)
        strategies)
    W.Datagen.[ Clustered; Diagonal ]

let test_3d_strategies_agree () =
  let space3 = Z.Space.make ~dims:3 ~depth:5 in
  let rng = W.Rng.create ~seed:9 in
  let points = W.Datagen.uniform rng ~side:32 ~n:400 ~dims:3 in
  let index = Zindex.of_points space3 (Array.mapi (fun i p -> (p, i)) points) in
  for _ = 1 to 25 do
    let c () =
      let a = W.Rng.int rng 32 and b = W.Rng.int rng 32 in
      (min a b, max a b)
    in
    let (x1, x2) = c () and (y1, y2) = c () and (z1, z2) = c () in
    let box = Sqp_geom.Box.make ~lo:[| x1; y1; z1 |] ~hi:[| x2; y2; z2 |] in
    let reference, _ = Zindex.range_search ~strategy:Zindex.Scan index box in
    List.iter
      (fun (name, strategy) ->
        let got, _ = Zindex.range_search ~strategy index box in
        if got <> reference then Alcotest.failf "%s disagrees in 3d" name)
      strategies
  done

let test_4d_range_search () =
  (* The reduction to 1d makes the algorithms dimension-blind; exercise
     4d end to end (shuffle, decompose, BIGMIN all generalize). *)
  let space4 = Z.Space.make ~dims:4 ~depth:3 in
  let rng = W.Rng.create ~seed:23 in
  let points =
    Array.init 200 (fun i -> (Array.init 4 (fun _ -> W.Rng.int rng 8), i))
  in
  let index = Zindex.of_points ~leaf_capacity:8 space4 points in
  for _ = 1 to 15 do
    let lo = Array.init 4 (fun _ -> W.Rng.int rng 8) in
    let hi = Array.mapi (fun i l -> min 7 (l + W.Rng.int rng (8 - lo.(i)))) lo in
    let box = Sqp_geom.Box.make ~lo ~hi in
    let expected =
      Array.to_list points
      |> List.filter (fun (p, _) -> Sqp_geom.Box.contains_point box p)
      |> List.length
    in
    List.iter
      (fun (name, strategy) ->
        let got, _ = Zindex.range_search ~strategy index box in
        if List.length got <> expected then Alcotest.failf "%s wrong in 4d" name)
      strategies
  done

let test_within_distance () =
  let index = build space6 in
  let all = Zindex.Tree.to_list (Zindex.tree index) |> List.map snd in
  let rng = W.Rng.create ~seed:101 in
  for _ = 1 to 30 do
    let c = [| W.Rng.int rng 64; W.Rng.int rng 64 |] in
    let radius = float_of_int (1 + W.Rng.int rng 20) in
    let got, stats = Zindex.within_distance index c ~radius in
    let expected =
      List.filter
        (fun (p, _) -> float_of_int (Sqp_geom.Point.euclidean_sq p c) <= radius *. radius)
        all
    in
    check_int "within_distance count" (List.length expected) (List.length got);
    check_int "stats results" (List.length got) stats.Zindex.results;
    check "subset" true (List.for_all (fun x -> List.mem x expected) got)
  done

let test_within_distance_zero_radius () =
  let index = Zindex.create space6 in
  Zindex.insert index [| 5; 5 |] 0;
  let got, _ = Zindex.within_distance index [| 5; 5 |] ~radius:0.0 in
  check_int "self at radius 0" 1 (List.length got);
  let none, _ = Zindex.within_distance index [| 6; 6 |] ~radius:0.5 in
  check_int "nothing nearby" 0 (List.length none)

let test_nearest () =
  let index = build space6 in
  let all = Zindex.Tree.to_list (Zindex.tree index) |> List.map snd in
  let rng = W.Rng.create ~seed:102 in
  for _ = 1 to 40 do
    let c = [| W.Rng.int rng 64; W.Rng.int rng 64 |] in
    match Zindex.nearest index c with
    | None -> Alcotest.fail "nearest on non-empty index"
    | Some ((p, _), _) ->
        let d = Sqp_geom.Point.euclidean_sq p c in
        List.iter
          (fun (q, _) ->
            if Sqp_geom.Point.euclidean_sq q c < d then
              Alcotest.failf "non-optimal nearest at (%d,%d)" c.(0) c.(1))
          all
  done;
  check "empty index" true (Zindex.nearest (Zindex.create space6) [| 0; 0 |] = None)

let test_nearest_exact_hit () =
  let index = build space6 in
  (* Querying at an indexed point returns that point. *)
  match Zindex.Tree.to_list (Zindex.tree index) with
  | (_, (p, v)) :: _ -> (
      match Zindex.nearest index p with
      | Some ((p', v'), _) ->
          check "same point" true (p = p' && v = v')
      | None -> Alcotest.fail "expected a neighbour")
  | [] -> Alcotest.fail "index empty"

let test_k_nearest () =
  let index = build space6 in
  let all = Zindex.Tree.to_list (Zindex.tree index) |> List.map snd in
  let dist2 p q =
    let dx = float_of_int (p.(0) - q.(0)) and dy = float_of_int (p.(1) - q.(1)) in
    (dx *. dx) +. (dy *. dy)
  in
  let rng = W.Rng.create ~seed:103 in
  for _ = 1 to 25 do
    let c = [| W.Rng.int rng 64; W.Rng.int rng 64 |] in
    let k = 1 + W.Rng.int rng 10 in
    let got, stats = Zindex.k_nearest index c ~k in
    check_int "k results" k (List.length got);
    check_int "stats results" k stats.Zindex.results;
    (* Distances must be the k smallest overall. *)
    let got_d = List.map (fun (p, _) -> dist2 p c) got in
    let best_d =
      List.sort compare (List.map (fun (p, _) -> dist2 p c) all)
      |> List.filteri (fun i _ -> i < k)
    in
    if List.sort compare got_d <> best_d then Alcotest.fail "k-nearest not optimal";
    (* Sorted closest first. *)
    check "sorted" true (List.sort compare got_d = got_d)
  done

let test_k_nearest_edges () =
  let index = build ~n:5 space6 in
  let got, _ = Zindex.k_nearest index [| 0; 0 |] ~k:100 in
  check_int "clamped to size" 5 (List.length got);
  let none, _ = Zindex.k_nearest index [| 0; 0 |] ~k:0 in
  check_int "k = 0" 0 (List.length none);
  let empty = Zindex.create space6 in
  let e, _ = Zindex.k_nearest empty [| 0; 0 |] ~k:3 in
  check_int "empty index" 0 (List.length e)

(* Property: random data, random boxes, all strategies = brute force. *)

let prop_strategies =
  QCheck2.Test.make ~name:"all strategies = brute force" ~count:40
    QCheck2.Gen.(
      tup3 (int_range 0 1000)
        (pair (int_bound 63) (int_bound 63))
        (pair (int_bound 63) (int_bound 63)))
    (fun (seed, (x1, y1), (x2, y2)) ->
      let index = build ~n:150 ~seed space6 in
      let box =
        Sqp_geom.Box.make ~lo:[| min x1 x2; min y1 y2 |] ~hi:[| max x1 x2; max y1 y2 |]
      in
      let expected = brute index box in
      List.for_all
        (fun (_, strategy) -> fst (Zindex.range_search ~strategy index box) = expected)
        strategies)

(* --- Compressed pages: differential against the fixed-width layout --- *)

(* The same byte budget, front-coded vs charged at a fixed width:
   query answers and merge-driven counters must be bit-identical — only
   the page partitioning (and so the page-access counters) may differ,
   and the compressed layout must never touch more pages. *)
let compressed_pair ?(n = 5000) () =
  let wk = W.Seeded.standard ~n_points:n () in
  let pts = W.Seeded.tagged_points wk in
  let space = wk.W.Seeded.space in
  (* Payloads are row ids: charge them as a u32 so the density ratio
     measures the key layouts rather than payload padding. *)
  let comp = Zindex.of_points ~page_budget:512 ~value_bytes:4 space pts in
  let fixed =
    Zindex.of_points ~page_budget:512 ~value_bytes:4 ~compressed:false space pts
  in
  (wk, comp, fixed)

let test_compressed_differential () =
  let wk, comp, fixed = compressed_pair () in
  check "comp is compressed" true (Zindex.compressed comp);
  check "fixed is not" false (Zindex.compressed fixed);
  (match (Zindex.Tree.check_invariants (Zindex.tree comp),
          Zindex.Tree.check_invariants (Zindex.tree fixed)) with
  | Ok (), Ok () -> ()
  | Error m, _ | _, Error m -> Alcotest.failf "invariants: %s" m);
  (* Page boundaries are not nested between the layouts, so one query
     can occasionally straddle a compressed boundary that falls inside
     a single fixed page — the win is aggregate, and it must be strict. *)
  let pages_comp = ref 0 and pages_fixed = ref 0 in
  Array.iteri
    (fun qi box ->
      let rc, sc = Zindex.range_search comp box in
      let rf, sf = Zindex.range_search fixed box in
      if rc <> rf then Alcotest.failf "rows differ on box %d" qi;
      if sc.Zindex.elements <> sf.Zindex.elements then
        Alcotest.failf "elements differ on box %d" qi;
      if sc.Zindex.results <> sf.Zindex.results then
        Alcotest.failf "results differ on box %d" qi;
      pages_comp := !pages_comp + sc.Zindex.data_pages;
      pages_fixed := !pages_fixed + sf.Zindex.data_pages)
    wk.W.Seeded.query_boxes;
  check "strictly fewer pages over the batch" true (!pages_comp < !pages_fixed);
  (* The paper's unit (section 5.3.2), pinned: the workload is seeded, so
     data pages touched by the 400-box batch and the leaf counts behind
     them are exact on every machine.  A change to page layout, budget
     accounting or the range merge shows up here first. *)
  check_int "400-box batch data pages, compressed" 2217 !pages_comp;
  check_int "400-box batch data pages, fixed-width" 2923 !pages_fixed;
  check_int "leaves, compressed" 85 (Zindex.data_page_count comp);
  check_int "leaves, fixed-width" 139 (Zindex.data_page_count fixed)

let test_compressed_density () =
  let _, comp, fixed = compressed_pair () in
  (match Zindex.compression_stats comp with
  | None -> Alcotest.fail "budget index must report compression"
  | Some c ->
      check "ratio over 1.5x" true (c.Zindex.ratio >= 1.5);
      check "denser than fixed layout" true
        (c.Zindex.avg_entries_per_leaf > Zindex.avg_leaf_entries fixed));
  check "fewer leaves" true
    (Zindex.data_page_count comp < Zindex.data_page_count fixed);
  check_int "page budget surfaced" 512
    (match Zindex.page_budget comp with Some b -> b | None -> -1)

let test_compressed_mutations () =
  (* Insert/delete churn on a budget tree keeps invariants and answers. *)
  let wk, comp, fixed = compressed_pair ~n:800 () in
  let rng = W.Rng.create ~seed:23 in
  let side = Z.Space.side wk.W.Seeded.space in
  for i = 0 to 399 do
    let p = [| W.Rng.int rng side; W.Rng.int rng side |] in
    if i mod 3 = 0 then begin
      ignore (Zindex.delete comp p);
      ignore (Zindex.delete fixed p)
    end
    else begin
      Zindex.insert comp p (100_000 + i);
      Zindex.insert fixed p (100_000 + i)
    end
  done;
  check_int "same length" (Zindex.length fixed) (Zindex.length comp);
  (match Zindex.Tree.check_invariants (Zindex.tree comp) with
  | Ok () -> ()
  | Error m -> Alcotest.failf "compressed invariants after churn: %s" m);
  (match Zindex.Tree.check_invariants (Zindex.tree fixed) with
  | Ok () -> ()
  | Error m -> Alcotest.failf "fixed invariants after churn: %s" m);
  Array.iter
    (fun box ->
      let rc, _ = Zindex.range_search comp box in
      let rf, _ = Zindex.range_search fixed box in
      if rc <> rf then Alcotest.fail "rows differ after churn")
    (Array.sub wk.W.Seeded.query_boxes 0 60)

let test_pool_counters () =
  let wk, comp, _ = compressed_pair ~n:2000 () in
  let total = ref 0 in
  Array.iter
    (fun box ->
      let _, st = Zindex.range_search comp box in
      check "hits nonneg" true (st.Zindex.pool_hits >= 0);
      check "misses nonneg" true (st.Zindex.pool_misses >= 0);
      (* Every page access is either a hit or a miss. *)
      check "accesses covered" true
        (st.Zindex.pool_hits + st.Zindex.pool_misses
        >= st.Zindex.leaf_accesses + st.Zindex.internal_accesses);
      total := !total + st.Zindex.pool_hits + st.Zindex.pool_misses)
    (Array.sub wk.W.Seeded.query_boxes 0 40);
  check "counters move" true (!total > 0)

let () =
  Alcotest.run "zindex"
    [
      ( "unit",
        [
          Alcotest.test_case "bulk build" `Quick test_build;
          Alcotest.test_case "find/insert/delete" `Quick test_find_insert_delete;
          Alcotest.test_case "strategies agree" `Quick test_all_strategies_agree;
          Alcotest.test_case "results in z order" `Quick test_results_in_z_order;
          Alcotest.test_case "empty region" `Quick test_empty_box_region;
          Alcotest.test_case "full-space query" `Quick test_full_space_query;
          Alcotest.test_case "out-of-grid query" `Quick test_out_of_grid_query;
          Alcotest.test_case "partial match" `Quick test_partial_match;
          Alcotest.test_case "stats sanity" `Quick test_stats_sane;
          Alcotest.test_case "skip beats scan" `Quick test_skip_beats_scan;
          Alcotest.test_case "leaf_points" `Quick test_leaf_points_cover_all;
          Alcotest.test_case "skewed datasets" `Quick test_clustered_and_diagonal;
          Alcotest.test_case "3d strategies agree" `Quick test_3d_strategies_agree;
          Alcotest.test_case "4d range search" `Quick test_4d_range_search;
          Alcotest.test_case "within_distance" `Quick test_within_distance;
          Alcotest.test_case "within_distance edge cases" `Quick test_within_distance_zero_radius;
          Alcotest.test_case "nearest" `Quick test_nearest;
          Alcotest.test_case "nearest exact hit" `Quick test_nearest_exact_hit;
          Alcotest.test_case "k nearest" `Quick test_k_nearest;
          Alcotest.test_case "k nearest edges" `Quick test_k_nearest_edges;
        ] );
      ( "compressed",
        [
          Alcotest.test_case "differential vs fixed-width" `Quick
            test_compressed_differential;
          Alcotest.test_case "density and ratio" `Quick test_compressed_density;
          Alcotest.test_case "mutation churn" `Quick test_compressed_mutations;
          Alcotest.test_case "pool counters" `Quick test_pool_counters;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest [ prop_strategies ]);
    ]
