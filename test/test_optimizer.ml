(* Cost-based optimizer tests.

   Three pillars: (1) histogram correctness — masses are conserved;
   (2) the differential guarantee — statistics change no plan's rows:
   the join the optimizer chooses returns the rows of the plan it was
   given, and the range plan returns the rows of the range kernels, in
   the same order before and after ANALYZE; (3) prediction accuracy —
   predicted rows and pages stay within the error factors documented
   in docs/COST_MODEL.md ("Calibration") on the seeded workload, so a
   regression in the formulas fails loudly here. *)

module W = Sqp_workload
module R = Sqp_relalg
module O = Sqp_optimizer
module Srv = Sqp_server
module Z = Sqp_zorder
module Box = Sqp_geom.Box

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* One seeded fixture; [cat] is analyzed once. *)
let wk = W.Seeded.standard ()
let cat = Srv.Catalog.of_seeded wk
let stats = Srv.Catalog.analyze cat
let space = wk.W.Seeded.space

(* Error factors documented in docs/COST_MODEL.md — the test and the
   document must agree, so change both together. *)
let join_rows_factor = 2.0
let distinct_rows_factor = 4.0
let pages_factor = 1.5

let within factor pred actual =
  if actual = 0 then pred <= 1.0
  else
    let a = float_of_int actual in
    pred <= (a *. factor) +. 0.5 && a <= (pred *. factor) +. 0.5

(* {1 Histograms} *)

let zs =
  List.map (Z.Interleave.shuffle space) (Array.to_list wk.W.Seeded.points)

let test_histogram_conservation () =
  let h = O.Histogram.build ~space (List.to_seq zs) in
  checki "rows" (Array.length wk.W.Seeded.points) (O.Histogram.rows h);
  let total =
    O.Histogram.fold_nonempty (fun _ mass _ acc -> acc +. mass) h 0.0
  in
  checkb "bucket masses sum to the row count" true
    (Float.abs (total -. float_of_int (O.Histogram.rows h)) < 1e-6)

(* {1 Range plan differential} *)

let boxes =
  wk.W.Seeded.query :: Array.to_list (Array.sub wk.W.Seeded.query_boxes 0 20)

let test_range_plan_differential () =
  (* On every seeded box the range plan, the skip merge every server
     runs and a linear scan return the same rows, ANALYZE leaves the
     plan's tuples and their order unchanged, and [range_access] names
     the skip merge. *)
  let fresh = Srv.Catalog.of_seeded wk in
  let run_plans () =
    List.map
      (fun b -> R.Plan.run (Srv.Catalog.range_plan fresh ~lo:(Box.lo b) ~hi:(Box.hi b)))
      boxes
  in
  let before = run_plans () in
  ignore (Srv.Catalog.analyze fresh);
  let after = run_plans () in
  let prep = Srv.Catalog.prepared_points fresh in
  let linear = Sqp_kdtree.Linear_scan.build (W.Seeded.tagged_points wk) in
  let sorted_points entries =
    List.sort compare (List.map (fun (p, _) -> Array.to_list p) entries)
  in
  List.iter2
    (fun b (plan, plan_after) ->
      checkb "same tuples in the same order after analyze" true
        (R.Relation.tuples plan = R.Relation.tuples plan_after);
      let plan_points =
        List.sort compare
          (List.map
             (fun tu -> Array.to_list (Array.map R.Value.to_int tu))
             (R.Relation.tuples plan))
      in
      let skip = fst (Sqp_core.Range_search.search_skip prep b) in
      let scan = fst (Sqp_kdtree.Linear_scan.range_search linear b) in
      checkb "plan rows = skip-merge rows" true (plan_points = sorted_points skip);
      checkb "skip-merge rows = linear-scan rows" true
        (sorted_points skip = sorted_points scan);
      checkb "range_access names the skip merge" true
        (Srv.Catalog.range_access fresh ~lo:(Box.lo b) ~hi:(Box.hi b)
        = Srv.Catalog.Direct { O.Cost.method_ = O.Cost.Skip }))
    boxes (List.combine before after);
  (* Both check their bounds: a box reaching past the grid is refused. *)
  let lo = [| 0; 0 |] and hi = [| Z.Space.side space; 0 |] in
  List.iter
    (fun (what, f) ->
      match f () with
      | () -> Alcotest.failf "%s accepted an out-of-grid box" what
      | exception Invalid_argument _ -> ())
    [
      ("range_access", fun () -> ignore (Srv.Catalog.range_access fresh ~lo ~hi));
      ("range_plan", fun () -> ignore (Srv.Catalog.range_plan fresh ~lo ~hi));
    ]

(* {1 Join decisions and the plan differential} *)

let overlap = Srv.Catalog.overlap_plan cat

let test_choose_plan_differential () =
  let expected = R.Plan.run overlap in
  let chosen, decisions = O.Optimizer.choose_plan stats overlap in
  checkb "one join decision" true (List.length decisions = 1);
  checkb "chosen plan: same rows" true
    (R.Relation.equal_contents expected (R.Plan.run chosen))

let test_join_estimates_within_factor () =
  let chosen, _ = O.Optimizer.choose_plan stats overlap in
  let a = R.Plan.run_analyze chosen in
  let rows = O.Optimizer.compare_analysis stats chosen a.R.Plan.report in
  checkb "comparison covers every operator" true (List.length rows >= 4);
  List.iter
    (fun (r : O.Optimizer.comparison_row) ->
      let factor =
        (* the duplicate-eliminating projection carries the loosest
           estimate (distinct witnesses); joins and scans are tighter *)
        if
          String.length r.O.Optimizer.op >= 7
          && String.sub r.O.Optimizer.op 0 7 = "project"
        then distinct_rows_factor
        else join_rows_factor
      in
      checkb
        (Printf.sprintf "%s: rows within %.0fx (pred %.0f, actual %d)"
           r.O.Optimizer.op factor r.O.Optimizer.predicted_rows
           r.O.Optimizer.actual_rows)
        true
        (within factor r.O.Optimizer.predicted_rows r.O.Optimizer.actual_rows);
      checkb
        (Printf.sprintf "%s: pages within %.1fx (pred %.0f, actual %d)"
           r.O.Optimizer.op pages_factor r.O.Optimizer.predicted_pages
           r.O.Optimizer.actual_pages)
        true
        (within pages_factor r.O.Optimizer.predicted_pages
           r.O.Optimizer.actual_pages))
    rows

(* {1 Explain} *)

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let test_explain_cost_column () =
  let chosen, _ = O.Optimizer.choose_plan stats overlap in
  let text = O.Optimizer.explain stats chosen in
  checkb "every operator line has a cost column" true
    (List.for_all
       (fun line -> String.trim line = "" || contains line "[cost=")
       (String.split_on_char '\n' text));
  checkb "the join runs the z-merge" true
    (contains text "spatial join zr <> zs via z-merge (~")

let () =
  Alcotest.run "optimizer"
    [
      ( "histograms",
        [
          Alcotest.test_case "mass conservation" `Quick
            test_histogram_conservation;
        ] );
      ( "range",
        [ Alcotest.test_case "differential" `Quick test_range_plan_differential ] );
      ( "join",
        [
          Alcotest.test_case "choose_plan differential" `Quick
            test_choose_plan_differential;
          Alcotest.test_case "estimates within factor" `Quick
            test_join_estimates_within_factor;
        ] );
      ( "explain",
        [
          Alcotest.test_case "cost column" `Quick test_explain_cost_column;
        ] );
    ]
