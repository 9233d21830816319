module R = Sqp_relalg
module Z = Sqp_zorder
module B = Z.Bitstring

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* {1 Value} *)

let test_value_compare () =
  check "int order" true (R.Value.compare (R.Value.Int 1) (R.Value.Int 2) < 0);
  check "zval z order" true
    (R.Value.compare (R.Value.Zval (B.of_string "01")) (R.Value.Zval (B.of_string "011")) < 0);
  check "null first" true (R.Value.compare R.Value.Null (R.Value.Int (-100)) < 0);
  check "equal" true (R.Value.equal (R.Value.Str "x") (R.Value.Str "x"))

let test_value_accessors () =
  check_int "to_int" 5 (R.Value.to_int (R.Value.Int 5));
  (match R.Value.to_int (R.Value.Str "x") with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ());
  check "to_zval" true
    (B.equal (R.Value.to_zval (R.Value.Zval (B.of_string "01"))) (B.of_string "01"))

(* {1 Schema} *)

let schema_ab = R.Schema.make [ ("a", R.Value.TInt); ("b", R.Value.TStr) ]

let test_schema () =
  check_int "arity" 2 (R.Schema.arity schema_ab);
  check_int "index" 1 (R.Schema.index schema_ab "b");
  check "mem" true (R.Schema.mem schema_ab "a");
  check "not mem" false (R.Schema.mem schema_ab "c");
  check "ty" true (R.Schema.ty schema_ab "b" = R.Value.TStr);
  (match R.Schema.make [ ("x", R.Value.TInt); ("x", R.Value.TStr) ] with
  | _ -> Alcotest.fail "duplicate attr should fail"
  | exception Invalid_argument _ -> ());
  let renamed = R.Schema.rename schema_ab [ ("a", "z") ] in
  Alcotest.(check (list string)) "renamed" [ "z"; "b" ] (R.Schema.names renamed);
  let projected = R.Schema.project schema_ab [ "b" ] in
  check_int "projected arity" 1 (R.Schema.arity projected)

let test_schema_common_concat () =
  let s2 = R.Schema.make [ ("b", R.Value.TStr); ("c", R.Value.TInt) ] in
  Alcotest.(check (list string)) "common" [ "b" ] (R.Schema.common schema_ab s2);
  (match R.Schema.concat schema_ab s2 with
  | _ -> Alcotest.fail "clash should fail"
  | exception Invalid_argument _ -> ());
  let s3 = R.Schema.make [ ("c", R.Value.TInt) ] in
  check_int "concat arity" 3 (R.Schema.arity (R.Schema.concat schema_ab s3))

(* {1 Relations and operators} *)

let rel_people =
  R.Relation.make ~name:"people" schema_ab
    [
      [| R.Value.Int 1; R.Value.Str "ann" |];
      [| R.Value.Int 2; R.Value.Str "bob" |];
      [| R.Value.Int 3; R.Value.Str "cat" |];
      [| R.Value.Int 3; R.Value.Str "cat" |];
    ]

let test_relation_basics () =
  check_int "cardinality" 4 (R.Relation.cardinality rel_people);
  let t = List.hd (R.Relation.tuples rel_people) in
  check_int "get" 1 (R.Value.to_int (R.Relation.get t schema_ab "a"))

let test_relation_arity_check () =
  match R.Relation.make schema_ab [ [| R.Value.Int 1 |] ] with
  | _ -> Alcotest.fail "arity mismatch should fail"
  | exception Invalid_argument _ -> ()

let test_select () =
  let big = R.Ops.select (fun t -> R.Value.to_int t.(0) > 1) rel_people in
  check_int "selected" 3 (R.Relation.cardinality big)

let test_project () =
  let names = R.Ops.project [ "b" ] rel_people in
  check_int "distinct" 3 (R.Relation.cardinality names);
  let all = R.Ops.project_all [ "b" ] rel_people in
  check_int "bag" 4 (R.Relation.cardinality all)

(* Floats that agree to six significant digits, and the two zeros:
   distinct under [Value.equal] in the first case, equal in the second. *)
let floats vs =
  R.Relation.make
    (R.Schema.make [ ("v", R.Value.TFloat) ])
    (List.map (fun v -> [| R.Value.Float v |]) vs)

let close_floats = floats [ 0.1; 0.1000001; 0.1 ]
let signed_zeros = floats [ -0.0; 0.0 ]

let test_distinct () =
  check_int "dedup" 3 (R.Relation.cardinality (R.Ops.distinct rel_people));
  check_int "close floats stay apart" 2
    (R.Relation.cardinality (R.Ops.distinct close_floats));
  check_int "signed zeros merge" 1
    (R.Relation.cardinality (R.Ops.distinct signed_zeros))

let test_extend () =
  let doubled =
    R.Ops.extend "a2" R.Value.TInt
      (fun t -> R.Value.Int (2 * R.Value.to_int t.(0)))
      rel_people
  in
  let t = List.hd (R.Relation.tuples doubled) in
  check_int "computed" 2 (R.Value.to_int (R.Relation.get t (R.Relation.schema doubled) "a2"))

let test_sort_by () =
  let sorted = R.Ops.sort_by [ "b"; "a" ] rel_people in
  match R.Relation.tuples sorted with
  | first :: _ -> check "ann first" true (R.Value.to_string_exn first.(1) = "ann")
  | [] -> Alcotest.fail "empty"

let test_product_union () =
  let other =
    R.Relation.make (R.Schema.make [ ("c", R.Value.TInt) ]) [ [| R.Value.Int 9 |] ]
  in
  check_int "product" 4 (R.Relation.cardinality (R.Ops.product rel_people other));
  let u = R.Ops.union rel_people rel_people in
  check_int "set union" 3 (R.Relation.cardinality u);
  check_int "union keeps close floats apart" 2
    (R.Relation.cardinality (R.Ops.union close_floats close_floats));
  check_int "union merges signed zeros" 1
    (R.Relation.cardinality (R.Ops.union signed_zeros signed_zeros))

let test_natural_join () =
  let orders =
    R.Relation.make
      (R.Schema.make [ ("a", R.Value.TInt); ("item", R.Value.TStr) ])
      [
        [| R.Value.Int 1; R.Value.Str "pen" |];
        [| R.Value.Int 1; R.Value.Str "ink" |];
        [| R.Value.Int 3; R.Value.Str "pad" |];
        [| R.Value.Int 9; R.Value.Str "egg" |];
      ]
  in
  let joined = R.Ops.natural_join (R.Ops.distinct rel_people) orders in
  check_int "matches" 3 (R.Relation.cardinality joined);
  Alcotest.(check (list string)) "schema" [ "a"; "b"; "item" ]
    (R.Schema.names (R.Relation.schema joined))

let test_group_by () =
  let orders =
    R.Relation.make
      (R.Schema.make [ ("cust", R.Value.TStr); ("amount", R.Value.TInt) ])
      [
        [| R.Value.Str "ann"; R.Value.Int 5 |];
        [| R.Value.Str "bob"; R.Value.Int 3 |];
        [| R.Value.Str "ann"; R.Value.Int 7 |];
        [| R.Value.Str "ann"; R.Value.Int 1 |];
      ]
  in
  let g =
    R.Ops.group_by [ "cust" ]
      [ ("n", R.Ops.Count); ("total", R.Ops.Sum "amount");
        ("lo", R.Ops.Min "amount"); ("hi", R.Ops.Max "amount") ]
      orders
  in
  check_int "two groups" 2 (R.Relation.cardinality g);
  let schema = R.Relation.schema g in
  let find cust =
    List.find
      (fun t -> R.Value.to_string_exn (R.Relation.get t schema "cust") = cust)
      (R.Relation.tuples g)
  in
  let ann = find "ann" in
  check_int "count" 3 (R.Value.to_int (R.Relation.get ann schema "n"));
  check_int "sum" 13 (R.Value.to_int (R.Relation.get ann schema "total"));
  check_int "min" 1 (R.Value.to_int (R.Relation.get ann schema "lo"));
  check_int "max" 7 (R.Value.to_int (R.Relation.get ann schema "hi"));
  let counts r =
    List.map
      (fun t -> R.Value.to_int t.(1))
      (R.Relation.tuples (R.Ops.group_by [ "v" ] [ ("n", R.Ops.Count) ] r))
  in
  Alcotest.(check (list int)) "close floats: two groups" [ 2; 1 ] (counts close_floats);
  Alcotest.(check (list int)) "signed zeros: one group" [ 2 ] (counts signed_zeros)

let test_group_by_area_per_object () =
  (* "What is the area of each object?" phrased relationally: decompose,
     extend with per-element cell counts, group by id. *)
  let space = Z.Space.make ~dims:2 ~depth:5 in
  let shapes =
    [
      (1, Sqp_geom.Shape.Box (Sqp_geom.Box.of_ranges [ (0, 3); (0, 3) ]));
      (2, Sqp_geom.Shape.Box (Sqp_geom.Box.of_ranges [ (10, 14); (10, 12) ]));
    ]
  in
  let r = R.Query.decompose_relation space shapes in
  let with_cells =
    R.Ops.extend "cells" R.Value.TInt
      (fun t ->
        R.Value.Int
          (int_of_float
             (Z.Element.cells space (R.Value.to_zval t.(1)))))
      r
  in
  let areas = R.Ops.group_by [ "id" ] [ ("area", R.Ops.Sum "cells") ] with_cells in
  let schema = R.Relation.schema areas in
  let area id =
    R.Value.to_int
      (R.Relation.get
         (List.find
            (fun t -> R.Value.to_int (R.Relation.get t schema "id") = id)
            (R.Relation.tuples areas))
         schema "area")
  in
  check_int "object 1" 16 (area 1);
  check_int "object 2" 15 (area 2)

let test_group_by_invalid () =
  match R.Ops.group_by [ "b" ] [ ("s", R.Ops.Sum "b") ] rel_people with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let test_flatten_sets () =
  let r =
    R.Relation.make
      (R.Schema.make [ ("id", R.Value.TInt); ("n", R.Value.TInt) ])
      [ [| R.Value.Int 1; R.Value.Int 2 |]; [| R.Value.Int 2; R.Value.Int 0 |] ]
  in
  (* Expand n into n copies 0..n-1. *)
  let f =
    R.Ops.flatten_sets r ~set_attr:"n"
      (fun v -> List.init (R.Value.to_int v) (fun i -> R.Value.Int i))
      R.Value.TInt
  in
  check_int "expanded" 2 (R.Relation.cardinality f)

(* {1 Spatial join} *)

let space = Z.Space.make ~dims:2 ~depth:5

let zrel name attr els =
  R.Relation.make ~name
    (R.Schema.make [ (attr ^ "_id", R.Value.TInt); (attr, R.Value.TZval) ])
    (List.mapi (fun i e -> [| R.Value.Int i; R.Value.Zval e |]) els)

let test_spatial_join_basic () =
  let r = zrel "R" "zr" [ B.of_string "00"; B.of_string "01" ] in
  let s = zrel "S" "zs" [ B.of_string "0011"; B.of_string "1" ] in
  let joined, stats = R.Spatial_join.merge r ~zr:"zr" s ~zs:"zs" in
  (* 00 contains 0011; 01 and 1 match nothing. *)
  check_int "one pair" 1 (R.Relation.cardinality joined);
  check_int "stats pairs" 1 stats.R.Spatial_join.pairs;
  let t = List.hd (R.Relation.tuples joined) in
  check_int "r id" 0 (R.Value.to_int (R.Relation.get t (R.Relation.schema joined) "zr_id"));
  check_int "s id" 0 (R.Value.to_int (R.Relation.get t (R.Relation.schema joined) "zs_id"))

let test_spatial_join_both_directions () =
  (* Containment in either direction must be found. *)
  let r = zrel "R" "zr" [ B.of_string "0011" ] in
  let s = zrel "S" "zs" [ B.of_string "00" ] in
  let joined, _ = R.Spatial_join.merge r ~zr:"zr" s ~zs:"zs" in
  check_int "zs contains zr" 1 (R.Relation.cardinality joined)

let test_spatial_join_equal_elements () =
  let r = zrel "R" "zr" [ B.of_string "010" ] in
  let s = zrel "S" "zs" [ B.of_string "010" ] in
  let joined, _ = R.Spatial_join.merge r ~zr:"zr" s ~zs:"zs" in
  check_int "emitted exactly once" 1 (R.Relation.cardinality joined)

let test_spatial_join_matches_nested_loop () =
  let rng = Sqp_workload.Rng.create ~seed:21 in
  for _ = 1 to 20 do
    let rand_els n =
      List.init n (fun _ ->
          let len = Sqp_workload.Rng.int rng 9 in
          B.init len (fun _ -> Sqp_workload.Rng.bool rng))
    in
    let r = zrel "R" "zr" (rand_els 30) in
    let s = zrel "S" "zs" (rand_els 30) in
    let m, _ = R.Spatial_join.merge r ~zr:"zr" s ~zs:"zs" in
    let n, _ = R.Spatial_join.nested_loop r ~zr:"zr" s ~zs:"zs" in
    if not (R.Relation.equal_contents m n) then
      Alcotest.failf "merge %d vs nested %d" (R.Relation.cardinality m)
        (R.Relation.cardinality n)
  done

let test_spatial_join_merge_cheaper () =
  let rng = Sqp_workload.Rng.create ~seed:2 in
  let rand_els n =
    List.init n (fun _ ->
        let len = 4 + Sqp_workload.Rng.int rng 6 in
        B.init len (fun _ -> Sqp_workload.Rng.bool rng))
  in
  let r = zrel "R" "zr" (rand_els 200) in
  let s = zrel "S" "zs" (rand_els 200) in
  let _, ms = R.Spatial_join.merge r ~zr:"zr" s ~zs:"zs" in
  let _, ns = R.Spatial_join.nested_loop r ~zr:"zr" s ~zs:"zs" in
  check "merge does fewer comparisons" true
    (ms.R.Spatial_join.comparisons * 4 < ns.R.Spatial_join.comparisons)

(* {1 Query scenarios} *)

let test_range_query_scenario () =
  let points =
    [ (1, [| 2; 3 |]); (2, [| 10; 10 |]); (3, [| 20; 25 |]); (4, [| 31; 31 |]) ]
  in
  let box = Sqp_geom.Box.of_ranges [ (5, 25); (5, 30) ] in
  let result = R.Query.range_query space points box in
  check_int "two points" 2 (R.Relation.cardinality result);
  let coords =
    List.map
      (fun t -> (R.Value.to_int t.(0), R.Value.to_int t.(1)))
      (R.Relation.tuples result)
  in
  check "both present" true
    (List.mem (10, 10) coords && List.mem (20, 25) coords)

let test_range_query_matches_brute_force () =
  let rng = Sqp_workload.Rng.create ~seed:31 in
  let points =
    List.init 80 (fun i -> (i, [| Sqp_workload.Rng.int rng 32; Sqp_workload.Rng.int rng 32 |]))
  in
  for _ = 1 to 10 do
    let x1 = Sqp_workload.Rng.int rng 32 and x2 = Sqp_workload.Rng.int rng 32 in
    let y1 = Sqp_workload.Rng.int rng 32 and y2 = Sqp_workload.Rng.int rng 32 in
    let box =
      Sqp_geom.Box.make ~lo:[| min x1 x2; min y1 y2 |] ~hi:[| max x1 x2; max y1 y2 |]
    in
    let result = R.Query.range_query space points box in
    let expected =
      List.filter (fun (_, p) -> Sqp_geom.Box.contains_point box p) points
      |> List.map (fun (_, p) -> (p.(0), p.(1)))
      |> List.sort_uniq compare
    in
    let got =
      List.map
        (fun t -> (R.Value.to_int t.(0), R.Value.to_int t.(1)))
        (R.Relation.tuples result)
      |> List.sort compare
    in
    if got <> expected then Alcotest.fail "range query via join mismatch"
  done

let test_overlapping_pairs () =
  let mk_box x y w h =
    Sqp_geom.Shape.Box (Sqp_geom.Box.of_ranges [ (x, x + w - 1); (y, y + h - 1) ])
  in
  let r = [ (1, mk_box 0 0 8 8); (2, mk_box 20 20 4 4) ] in
  let s = [ (7, mk_box 4 4 8 8); (8, mk_box 28 28 2 2) ] in
  let pairs = R.Query.overlapping_pairs space r s in
  check_int "one overlap" 1 (R.Relation.cardinality pairs);
  let t = List.hd (R.Relation.tuples pairs) in
  check_int "rid" 1 (R.Value.to_int t.(0));
  check_int "sid" 7 (R.Value.to_int t.(1))

(* {1 Stored relations on disk} *)

let test_stored_durable_roundtrip () =
  let path =
    Filename.concat (Filename.get_temp_dir_name ()) "sqp_test_stored.rel"
  in
  let clean () =
    List.iter
      (fun p -> if Sys.file_exists p then Sys.remove p)
      [ path; path ^ ".tmp" ]
  in
  clean ();
  Fun.protect ~finally:clean (fun () ->
      let schema =
        R.Schema.make
          [ ("id", R.Value.TInt); ("label", R.Value.TStr); ("score", R.Value.TFloat);
            ("flag", R.Value.TBool); ("z", R.Value.TZval) ]
      in
      let tuples =
        List.init 100 (fun i ->
            [| R.Value.Int i;
               (if i mod 7 = 0 then R.Value.Null else R.Value.Str (Printf.sprintf "row %d" i));
               R.Value.Float (float_of_int i /. 3.0);
               R.Value.Bool (i mod 2 = 0);
               R.Value.Zval (B.of_string (if i mod 3 = 0 then "0110" else "10")) |])
      in
      let rel = R.Relation.make ~name:"durable" schema tuples in
      let stored = R.Stored.store ~tuples_per_page:9 rel in
      R.Stored.save_to ~path stored;
      let back = R.Stored.load_from ~path () in
      Alcotest.(check string) "name" "durable" (R.Stored.name back);
      check "schema" true (R.Schema.equal schema (R.Stored.schema back));
      check_int "cardinality" 100 (R.Stored.cardinality back);
      check_int "tuples_per_page" 9 (R.Stored.tuples_per_page back);
      check_int "pages" (R.Stored.pages stored) (R.Stored.pages back);
      check "tuples identical in order" true
        (R.Relation.tuples (R.Stored.scan back) = R.Relation.tuples rel))

(* A checksum-valid relation page whose z text is no z value — a
   character other than 0/1, or more than 61 bits — is a format error
   like any other: Corrupt, not an escaping Invalid_argument. *)
let test_stored_bad_zval () =
  let module FP = Sqp_storage.File_pager in
  let path = Filename.concat (Filename.get_temp_dir_name ()) "sqp_test_stored_zval.rel" in
  let clean () =
    List.iter
      (fun p -> if Sys.file_exists p then Sys.remove p)
      [ path; path ^ ".tmp"; Sqp_storage.Journal.journal_path path ]
  in
  let schema = R.Schema.make [ ("z", R.Value.TZval) ] in
  List.iter
    (fun text ->
      clean ();
      Fun.protect ~finally:clean (fun () ->
          let rel = R.Relation.make ~name:"zs" schema [ [| R.Value.Zval (B.of_string "0") |] ] in
          R.Stored.save_to ~path (R.Stored.store ~tuples_per_page:1 rel);
          (* Rewrite the data page, the last one, through the pager so its
             checksum stays valid: one tuple, tag 5, the text. *)
          let fp = FP.open_existing path in
          let data = ref (-1) in
          FP.iter fp (fun pid _ -> data := pid);
          let b = Buffer.create 80 in
          Buffer.add_uint16_be b 1;
          Buffer.add_uint8 b 5;
          Buffer.add_int32_be b (Int32.of_int (String.length text));
          Buffer.add_string b text;
          FP.write fp !data (Buffer.to_bytes b);
          FP.close fp;
          match R.Stored.load_from ~path () with
          | _ -> Alcotest.failf "z text %S loaded" text
          | exception Sqp_storage.Storage_error.Corrupt _ -> ()))
    [ "01x"; String.make 62 '1' ]

let () =
  Alcotest.run "relalg"
    [
      ( "value",
        [
          Alcotest.test_case "compare" `Quick test_value_compare;
          Alcotest.test_case "accessors" `Quick test_value_accessors;
        ] );
      ( "schema",
        [
          Alcotest.test_case "basics" `Quick test_schema;
          Alcotest.test_case "common/concat" `Quick test_schema_common_concat;
        ] );
      ( "operators",
        [
          Alcotest.test_case "relation basics" `Quick test_relation_basics;
          Alcotest.test_case "arity check" `Quick test_relation_arity_check;
          Alcotest.test_case "select" `Quick test_select;
          Alcotest.test_case "project" `Quick test_project;
          Alcotest.test_case "distinct" `Quick test_distinct;
          Alcotest.test_case "extend" `Quick test_extend;
          Alcotest.test_case "sort_by" `Quick test_sort_by;
          Alcotest.test_case "product/union" `Quick test_product_union;
          Alcotest.test_case "natural join" `Quick test_natural_join;
          Alcotest.test_case "group_by" `Quick test_group_by;
          Alcotest.test_case "group_by area per object" `Quick test_group_by_area_per_object;
          Alcotest.test_case "group_by invalid" `Quick test_group_by_invalid;
          Alcotest.test_case "flatten_sets" `Quick test_flatten_sets;
        ] );
      ( "spatial join",
        [
          Alcotest.test_case "basic containment" `Quick test_spatial_join_basic;
          Alcotest.test_case "both directions" `Quick test_spatial_join_both_directions;
          Alcotest.test_case "equal elements once" `Quick test_spatial_join_equal_elements;
          Alcotest.test_case "merge = nested loop" `Quick test_spatial_join_matches_nested_loop;
          Alcotest.test_case "merge cheaper" `Quick test_spatial_join_merge_cheaper;
        ] );
      ( "durable snapshots",
        [
          Alcotest.test_case "save_to/load_from roundtrip" `Quick
            test_stored_durable_roundtrip;
          Alcotest.test_case "bad z text is Corrupt" `Quick test_stored_bad_zval;
        ] );
      ( "scenarios",
        [
          Alcotest.test_case "range query (Section 4)" `Quick test_range_query_scenario;
          Alcotest.test_case "range query = brute force" `Quick test_range_query_matches_brute_force;
          Alcotest.test_case "overlapping pairs" `Quick test_overlapping_pairs;
        ] );
    ]
