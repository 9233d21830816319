(* Cost-based optimizer tests.

   Three pillars: (1) histogram correctness — masses are conserved and
   element masses match exact counts at full resolution; (2) the
   differential guarantee — every plan the optimizer produces (the
   push-down-optimized join, coarsened range covers) returns the same
   rows as the plan it replaced, as a multiset; (3) prediction
   accuracy — predicted rows and pages stay within the error factors
   documented in docs/COST_MODEL.md ("Calibration") on the seeded
   workload, so a regression in the formulas fails loudly here. *)

module W = Sqp_workload
module R = Sqp_relalg
module O = Sqp_optimizer
module Srv = Sqp_server
module Z = Sqp_zorder
module Box = Sqp_geom.Box

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* One seeded fixture; [cat] analyzed once, [plain_cat] never. *)
let wk = W.Seeded.standard ()
let cat = Srv.Catalog.of_seeded wk
let plain_cat = Srv.Catalog.of_seeded wk
let stats = Srv.Catalog.analyze cat
let space = wk.W.Seeded.space

let point_hist =
  match O.Stats.find_z stats "z" with
  | Some (_, h) -> h
  | None -> Alcotest.fail "no histogram for the point relation's z column"

(* Error factors documented in docs/COST_MODEL.md — the test and the
   document must agree, so change both together. *)
let range_rows_factor = 2.0
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
    (Float.abs (total -. float_of_int (O.Histogram.rows h)) < 1e-6);
  (* The root element contains everything. *)
  let root_mass = O.Histogram.element_mass h Z.Element.root in
  checkb "root element mass = rows" true
    (Float.abs (root_mass -. float_of_int (O.Histogram.rows h)) < 1e-6)

let test_histogram_element_mass_exact () =
  (* The mass inside an element of level = prefix_bits (one whole
     bucket) is the exact count of z values extending it. *)
  let h = O.Histogram.build ~space (List.to_seq zs) in
  let pb = O.Histogram.prefix_bits h in
  let prefix z = Z.Bitstring.take z pb in
  let sample = List.filteri (fun i _ -> i mod 500 = 0) zs in
  List.iter
    (fun z ->
      let e = prefix z in
      let exact = List.length (List.filter (fun z' -> prefix z' = e) zs) in
      let mass = O.Histogram.element_mass h e in
      checkb "bucket-aligned element mass is exact" true
        (Float.abs (mass -. float_of_int exact) < 1e-6))
    sample

(* {1 Range alternatives and predictions} *)

let boxes =
  wk.W.Seeded.query :: Array.to_list (Array.sub wk.W.Seeded.query_boxes 0 20)

let test_range_predictions_within_factor () =
  List.iter
    (fun b ->
      let lo = Box.lo b and hi = Box.hi b in
      let pred =
        O.Cost.predicted_range_rows ~space ~hist:point_hist ~lo ~hi ()
      in
      let actual =
        R.Relation.cardinality
          (R.Plan.run (Srv.Catalog.range_plan plain_cat ~lo ~hi))
      in
      checkb
        (Printf.sprintf "range rows within %.0fx (pred %.1f, actual %d)"
           range_rows_factor pred actual)
        true
        (within range_rows_factor pred actual))
    boxes

let test_range_alternatives_shape () =
  let lo = Box.lo wk.W.Seeded.query and hi = Box.hi wk.W.Seeded.query in
  let alts =
    O.Cost.range_alternatives ~space ~hist:point_hist
      ~points:(Array.length wk.W.Seeded.points) ~lo ~hi ()
  in
  checkb "several alternatives" true (List.length alts >= 4);
  let costs = List.map (fun a -> a.O.Cost.cost) alts in
  checkb "sorted by ascending cost" true (List.sort compare costs = costs);
  List.iter
    (fun a ->
      checkb "positive cost" true (a.O.Cost.cost > 0.0);
      if a.O.Cost.max_level = None then
        checkb "exact cover never needs refining" true
          (not a.O.Cost.needs_refine))
    alts;
  (* The executors differ: the plan path must carry its interpreter
     constant, so it is always dearer than the direct exact kernel. *)
  let exact = List.find (fun a -> a.O.Cost.max_level = None) alts in
  List.iter
    (fun a ->
      checkb "plan path costlier than the direct kernel" true
        (O.Cost.plan_path_cost ~points:(Array.length wk.W.Seeded.points) a
        > exact.O.Cost.cost))
    alts

let test_range_plan_differential () =
  (* The statistics-aware range plan (possibly coarsened + refined)
     returns exactly the rows of the statistics-free one, and the
     direct access path agrees on the count. *)
  List.iter
    (fun b ->
      let lo = Box.lo b and hi = Box.hi b in
      let without = R.Plan.run (Srv.Catalog.range_plan plain_cat ~lo ~hi) in
      let with_stats = R.Plan.run (Srv.Catalog.range_plan cat ~lo ~hi) in
      checkb "coarsened+refined = exact rows" true
        (R.Relation.equal_contents without with_stats);
      match Srv.Catalog.range_access cat ~lo ~hi with
      | Srv.Catalog.Planned -> ()
      | Srv.Catalog.Direct alt ->
          let prep = Srv.Catalog.prepared_points cat in
          let entries, _ =
            (match alt.O.Cost.method_ with
            | O.Cost.Plain -> Sqp_core.Range_search.search_plain
            | O.Cost.Skip -> Sqp_core.Range_search.search_skip)
              prep
              (Box.make ~lo ~hi)
          in
          checki "direct path row count"
            (R.Relation.cardinality without)
            (List.length entries))
    boxes

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
          Alcotest.test_case "element mass exact at bucket level" `Quick
            test_histogram_element_mass_exact;
        ] );
      ( "range",
        [
          Alcotest.test_case "predictions within factor" `Quick
            test_range_predictions_within_factor;
          Alcotest.test_case "alternatives shape" `Quick
            test_range_alternatives_shape;
          Alcotest.test_case "differential" `Quick test_range_plan_differential;
        ] );
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
