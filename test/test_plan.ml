module R = Sqp_relalg
module P = Sqp_relalg.Plan
module Z = Sqp_zorder

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let space = Z.Space.make ~dims:2 ~depth:5

let points =
  [
    (1, [| 2; 3 |]); (2, [| 12; 20 |]); (3, [| 20; 25 |]); (4, [| 31; 31 |]);
    (5, [| 7; 7 |]); (6, [| 25; 9 |]);
  ]

let p_rel = R.Query.points_relation space points

let box = Sqp_geom.Box.of_ranges [ (5, 26); (5, 26) ]

let b_rel = R.Ops.rename [ ("z", "zb") ] (R.Query.box_relation space box)

let range_plan =
  P.Project
    ( [ "x0"; "x1" ],
      P.Spatial_join { zl = "z"; zr = "zb"; left = P.Scan p_rel; right = P.Scan b_rel } )

let test_schema () =
  Alcotest.(check (list string)) "projected schema" [ "x0"; "x1" ]
    (R.Schema.names (P.schema range_plan));
  Alcotest.(check (list string)) "join schema"
    [ "id"; "z"; "x0"; "x1"; "zb" ]
    (R.Schema.names
       (P.schema
          (P.Spatial_join
             { zl = "z"; zr = "zb"; left = P.Scan p_rel; right = P.Scan b_rel })))

let test_run_range_query () =
  let result = P.run range_plan in
  let coords =
    List.map (fun t -> (R.Value.to_int t.(0), R.Value.to_int t.(1)))
      (R.Relation.tuples result)
    |> List.sort compare
  in
  Alcotest.(check (list (pair int int))) "points in box"
    [ (7, 7); (12, 20); (20, 25); (25, 9) ]
    coords

let test_select_and_run () =
  let plan =
    P.Select (P.attr_between "x0" (R.Value.Int 10) (R.Value.Int 30), P.Scan p_rel)
  in
  check_int "x in [10,30]" 3 (R.Relation.cardinality (P.run plan))

let test_optimize_preserves_semantics () =
  let plans =
    [
      range_plan;
      P.Select
        ( P.attr_between "x0" (R.Value.Int 0) (R.Value.Int 15),
          P.Spatial_join
            { zl = "z"; zr = "zb"; left = P.Scan p_rel; right = P.Scan b_rel } );
      P.Sort ([ "x0" ], P.Sort ([ "x1" ], P.Scan p_rel));
      P.Select
        ( P.attr_equals "id" (R.Value.Int 3),
          P.Rename
            ( [ ("oid", "id") ],
              P.Rename ([ ("x0", "col") ], P.Scan (R.Ops.rename [ ("id", "oid") ] p_rel)) ) );
    ]
  in
  List.iter
    (fun plan ->
      let a = P.run plan and b = P.run (P.optimize plan) in
      if not (R.Relation.equal_contents a b) then
        Alcotest.failf "optimize changed semantics:\n%s" (P.explain plan))
    plans

let test_pushdown_happens () =
  let plan =
    P.Select
      ( P.attr_equals "id" (R.Value.Int 1),
        P.Spatial_join
          { zl = "z"; zr = "zb"; left = P.Scan p_rel; right = P.Scan b_rel } )
  in
  match P.optimize plan with
  | P.Spatial_join { left = P.Select _; _ } -> ()
  | other -> Alcotest.failf "expected pushed-down select:\n%s" (P.explain other)

let test_pushdown_through_rename () =
  let plan =
    P.Select
      (P.attr_equals "pid" (R.Value.Int 2), P.Rename ([ ("id", "pid") ], P.Scan p_rel))
  in
  (match P.optimize plan with
  | P.Rename (_, P.Select _) -> ()
  | other -> Alcotest.failf "expected select under rename:\n%s" (P.explain other));
  check_int "still one row" 1 (R.Relation.cardinality (P.run (P.optimize plan)))

let test_explain () =
  let text = P.explain range_plan in
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  check "spatial join line" true (contains text "spatial join");
  check "scan line" true (contains text "scan");
  check "project line" true (contains text "project")

let test_estimated_rows () =
  check "scan estimate exact" true
    (P.estimated_rows (P.Scan p_rel) = float_of_int (List.length points));
  check "select reduces" true
    (P.estimated_rows (P.Select (P.attr_equals "id" (R.Value.Int 1), P.Scan p_rel))
    < P.estimated_rows (P.Scan p_rel))

let test_join_runs_merge () =
  (* Every spatial join runs the z-merge, whatever its input sizes, and
     finds the nested loop's rows. *)
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  let merged_as_oracle what = function
    | P.Spatial_join { zl; zr; left; right } as join ->
        check (what ^ ": explained via z-merge") true
          (contains (P.explain join) (Printf.sprintf "spatial join %s <> %s via z-merge" zl zr));
        let a = P.run_analyze join in
        Alcotest.(check string) (what ^ ": analyzed via z-merge")
          (Printf.sprintf "spatial join %s <> %s via z-merge" zl zr)
          a.P.report.P.op;
        let oracle, _ = R.Spatial_join.nested_loop (P.run left) ~zr:zl (P.run right) ~zs:zr in
        check (what ^ ": nested loop's multiset") true
          (R.Relation.equal_contents oracle a.P.result);
        R.Relation.cardinality oracle
    | other -> Alcotest.failf "%s: not a spatial join:\n%s" what (P.explain other)
  in
  check_int "small join: the 4 points in the box" 4
    (merged_as_oracle "small join"
       (P.Spatial_join { zl = "z"; zr = "zb"; left = P.Scan p_rel; right = P.Scan b_rel }));
  let big =
    R.Relation.make
      (R.Schema.make [ ("zz", R.Value.TZval) ])
      (List.init 500 (fun i ->
           [| R.Value.Zval (Sqp_zorder.Bitstring.of_int i ~width:10) |]))
  in
  check "500-row join: pairs found" true
    (merged_as_oracle "500-row join"
       (P.Spatial_join
          { zl = "zz"; zr = "zb"; left = P.Scan big; right = P.Scan (R.Ops.rename [] b_rel) })
    > 0);
  (* The statistics-free seeded join of 135 x 130 stored elements
     (17,550 pairs to compare); its objects do not overlap. *)
  let wk = Sqp_workload.Seeded.standard ~n_objects:6 () in
  match
    R.Query.stored_overlap_plan ~options:wk.Sqp_workload.Seeded.decompose_options
      wk.Sqp_workload.Seeded.space wk.Sqp_workload.Seeded.left_objects
      wk.Sqp_workload.Seeded.right_objects
  with
  | P.Project (_, (P.Spatial_join { left; right; _ } as join)) ->
      check_int "seeded join: left elements" 135 (R.Relation.cardinality (P.run left));
      check_int "seeded join: right elements" 130 (R.Relation.cardinality (P.run right));
      check_int "seeded join: no pairs" 0 (merged_as_oracle "seeded join" join)
  | other -> Alcotest.failf "unexpected overlap plan:\n%s" (P.explain other)

let test_union_product () =
  let u = P.Union (P.Scan p_rel, P.Scan p_rel) in
  check_int "union dedups" 6 (R.Relation.cardinality (P.run u));
  let small =
    R.Relation.make (R.Schema.make [ ("k", R.Value.TInt) ]) [ [| R.Value.Int 1 |] ]
  in
  let prod = P.Product (P.Scan p_rel, P.Scan small) in
  check_int "product" 6 (R.Relation.cardinality (P.run prod))

let test_natural_join_plan () =
  let extra =
    R.Relation.make
      (R.Schema.make [ ("id", R.Value.TInt); ("tag", R.Value.TStr) ])
      [ [| R.Value.Int 1; R.Value.Str "a" |]; [| R.Value.Int 3; R.Value.Str "b" |] ]
  in
  let plan = P.Natural_join (P.Scan p_rel, P.Scan extra) in
  check_int "joined rows" 2 (R.Relation.cardinality (P.run plan));
  Alcotest.(check (list string)) "schema"
    [ "id"; "z"; "x0"; "x1"; "tag" ]
    (R.Schema.names (P.schema plan))

let () =
  Alcotest.run "plan"
    [
      ( "unit",
        [
          Alcotest.test_case "schema" `Quick test_schema;
          Alcotest.test_case "run range query" `Quick test_run_range_query;
          Alcotest.test_case "select" `Quick test_select_and_run;
          Alcotest.test_case "optimize preserves semantics" `Quick test_optimize_preserves_semantics;
          Alcotest.test_case "pushdown below join" `Quick test_pushdown_happens;
          Alcotest.test_case "pushdown through rename" `Quick test_pushdown_through_rename;
          Alcotest.test_case "explain" `Quick test_explain;
          Alcotest.test_case "estimates" `Quick test_estimated_rows;
          Alcotest.test_case "spatial join runs the z-merge" `Quick test_join_runs_merge;
          Alcotest.test_case "union/product" `Quick test_union_product;
          Alcotest.test_case "natural join plan" `Quick test_natural_join_plan;
        ] );
    ]
