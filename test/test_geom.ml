module G = Sqp_geom
module Z = Sqp_zorder

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let s5 = Z.Space.make ~dims:2 ~depth:5

(* {1 Point} *)

let test_point () =
  let a = G.Point.make [ 1; 2 ] and b = G.Point.make [ 4; 6 ] in
  check_int "dims" 2 (G.Point.dims a);
  check_int "coord" 2 (G.Point.coord a 1);
  check_int "chebyshev" 4 (G.Point.chebyshev a b);
  check_int "manhattan" 7 (G.Point.manhattan a b);
  check_int "euclidean_sq" 25 (G.Point.euclidean_sq a b);
  check "equal" true (G.Point.equal a [| 1; 2 |]);
  check "in grid" true (G.Point.in_grid ~side:8 a);
  check "not in grid" false (G.Point.in_grid ~side:2 b)

let test_point_dim_mismatch () =
  match G.Point.chebyshev [| 1 |] [| 1; 2 |] with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

(* {1 Box} *)

let test_box_basics () =
  let b = G.Box.of_ranges [ (1, 3); (0, 4) ] in
  check_int "dims" 2 (G.Box.dims b);
  check_int "extent x" 3 (G.Box.extent b 0);
  check_int "extent y" 5 (G.Box.extent b 1);
  Alcotest.(check (float 0.001)) "volume" 15.0 (G.Box.volume b);
  check "contains point" true (G.Box.contains_point b [| 2; 4 |]);
  check "boundary inclusive" true (G.Box.contains_point b [| 3; 0 |]);
  check "outside" false (G.Box.contains_point b [| 4; 0 |])

let test_box_invalid () =
  match G.Box.make ~lo:[| 3 |] ~hi:[| 1 |] with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let test_box_relations () =
  let a = G.Box.of_ranges [ (0, 5); (0, 5) ] in
  let b = G.Box.of_ranges [ (2, 3); (2, 3) ] in
  let c = G.Box.of_ranges [ (6, 8); (0, 5) ] in
  check "contains" true (G.Box.contains_box a b);
  check "not contains" false (G.Box.contains_box b a);
  check "overlaps" true (G.Box.overlaps a b);
  check "touching edge does not overlap" false (G.Box.overlaps a c);
  (match G.Box.intersection a b with
  | Some i -> check "inter = b" true (G.Box.equal i b)
  | None -> Alcotest.fail "intersection expected");
  check "disjoint intersection" true (G.Box.intersection a c = None)

let test_box_clip_translate () =
  let b = G.Box.of_ranges [ (-3, 5); (30, 40) ] in
  (match G.Box.clip b ~side:32 with
  | Some c ->
      Alcotest.(check (array int)) "lo" [| 0; 30 |] (G.Box.lo c);
      Alcotest.(check (array int)) "hi" [| 5; 31 |] (G.Box.hi c)
  | None -> Alcotest.fail "clip expected");
  check "fully outside" true (G.Box.clip (G.Box.of_ranges [ (40, 50); (0, 5) ]) ~side:32 = None);
  let t = G.Box.translate (G.Box.of_ranges [ (0, 1); (0, 1) ]) [| 5; 6 |] in
  Alcotest.(check (array int)) "translated lo" [| 5; 6 |] (G.Box.lo t)

let test_box_classifier_clips () =
  (* A box partly outside the grid must still classify correctly. *)
  let b = G.Box.of_ranges [ (20, 100); (20, 100) ] in
  let classify = G.Box.classifier s5 b in
  check "inside cell" true (classify (Z.Element.pixel s5 [| 25; 25 |]) = Z.Decompose.Inside);
  check "outside cell" true (classify (Z.Element.pixel s5 [| 5; 5 |]) = Z.Decompose.Outside);
  let outside = G.Box.of_ranges [ (100, 200); (0, 3) ] in
  check "fully outside" true (G.Box.classifier s5 outside Z.Element.root = Z.Decompose.Outside)

(* {1 Polygon} *)

let square = G.Polygon.make [ (2, 2); (10, 2); (10, 10); (2, 10) ]

let test_polygon_area () =
  check_int "area2 of square" 128 (abs (G.Polygon.area2 square))

let test_polygon_contains () =
  check "center" true (G.Polygon.contains_cell square 5 5);
  check "cell (2,2) center inside" true (G.Polygon.contains_cell square 2 2);
  (* Cell (10,10) has center (10.5, 10.5), outside the polygon. *)
  check "cell at far corner outside" false (G.Polygon.contains_cell square 10 10);
  check "outside" false (G.Polygon.contains_cell square 0 0)

let test_polygon_concave () =
  (* L-shape: the notch is outside. *)
  let l = G.Polygon.make [ (0, 0); (8, 0); (8, 4); (4, 4); (4, 8); (0, 8) ] in
  check "in the notch" false (G.Polygon.contains_cell l 6 6);
  check "in the L" true (G.Polygon.contains_cell l 2 2);
  check "in the arm" true (G.Polygon.contains_cell l 6 2)

let test_polygon_classify () =
  check "inside box" true
    (G.Polygon.classify_box square ~xlo:4 ~xhi:5 ~ylo:4 ~yhi:5 = Z.Decompose.Inside);
  check "outside box" true
    (G.Polygon.classify_box square ~xlo:12 ~xhi:14 ~ylo:12 ~yhi:14 = Z.Decompose.Outside);
  check "crossing box" true
    (G.Polygon.classify_box square ~xlo:0 ~xhi:4 ~ylo:0 ~yhi:4 = Z.Decompose.Crosses)

let test_polygon_decompose_consistent () =
  (* Exact decomposition pixel set = pixel classification set. *)
  let shape = G.Shape.Polygon (G.Polygon.make [ (3, 2); (28, 8); (20, 29); (5, 22) ]) in
  let els = G.Shape.decompose s5 shape in
  let classify = G.Shape.classifier s5 shape in
  for x = 0 to 31 do
    for y = 0 to 31 do
      let z = Z.Element.pixel s5 [| x; y |] in
      let covered = List.exists (fun e -> Z.Element.contains e z) els in
      let expected =
        match classify z with
        | Z.Decompose.Inside | Z.Decompose.Crosses -> true
        | Z.Decompose.Outside -> false
      in
      if covered <> expected then Alcotest.failf "pixel (%d,%d) mismatch" x y
    done
  done

(* {1 Circle} *)

let test_circle () =
  let c = G.Circle.make ~cx:10 ~cy:10 ~radius:5 in
  check "center" true (G.Circle.contains_cell c 10 10);
  check "edge" true (G.Circle.contains_cell c 15 10);
  check "outside" false (G.Circle.contains_cell c 16 10);
  check "diagonal in" true (G.Circle.contains_cell c 13 13);
  check "diagonal out" false (G.Circle.contains_cell c 14 14);
  let bb = G.Circle.bounding_box c in
  Alcotest.(check (array int)) "bb lo" [| 5; 5 |] (G.Box.lo bb)

let test_circle_classify () =
  let c = G.Circle.make ~cx:16 ~cy:16 ~radius:10 in
  check "inside" true
    (G.Circle.classify_box c ~xlo:14 ~xhi:17 ~ylo:14 ~yhi:17 = Z.Decompose.Inside);
  check "outside" true
    (G.Circle.classify_box c ~xlo:28 ~xhi:31 ~ylo:28 ~yhi:31 = Z.Decompose.Outside);
  check "crosses" true
    (G.Circle.classify_box c ~xlo:24 ~xhi:27 ~ylo:14 ~yhi:17 = Z.Decompose.Crosses)

let test_circle_decompose_area () =
  let c = G.Circle.make ~cx:16 ~cy:16 ~radius:8 in
  let els = G.Shape.decompose s5 (G.Shape.Circle c) in
  let area = List.fold_left (fun a e -> a +. Z.Element.cells s5 e) 0.0 els in
  (* Between the inscribed and circumscribed squares, near pi*r^2. *)
  check "plausible area" true (area > 3.0 *. 64.0 && area < 4.0 *. 81.0)

(* {1 Shape} *)

let test_shape_dispatch () =
  let b = G.Shape.Box (G.Box.of_ranges [ (0, 3); (0, 3) ]) in
  check "box cell" true (G.Shape.contains_cell b 2 2);
  let bb = G.Shape.bounding_box b in
  check_int "bb extent" 4 (G.Box.extent bb 0)

(* Properties *)

let prop_circle_classifier_consistent =
  QCheck2.Test.make ~name:"circle classify vs contains_cell" ~count:200
    QCheck2.Gen.(tup4 (int_bound 31) (int_bound 31) (int_bound 12) (pair (int_bound 31) (int_bound 31)))
    (fun (cx, cy, r, (x, y)) ->
      let c = G.Circle.make ~cx ~cy ~radius:r in
      match G.Circle.classify_box c ~xlo:x ~xhi:x ~ylo:y ~yhi:y with
      | Z.Decompose.Inside -> G.Circle.contains_cell c x y
      | Z.Decompose.Outside -> not (G.Circle.contains_cell c x y)
      | Z.Decompose.Crosses -> false (* single-cell boxes never cross *))

let prop_box_intersection_symmetric =
  let gen_box =
    QCheck2.Gen.(
      map
        (fun (a, b, c, d) ->
          G.Box.make ~lo:[| min a b; min c d |] ~hi:[| max a b; max c d |])
        (quad (int_bound 31) (int_bound 31) (int_bound 31) (int_bound 31)))
  in
  QCheck2.Test.make ~name:"box intersection symmetric + sound" ~count:300
    QCheck2.Gen.(pair gen_box gen_box)
    (fun (a, b) ->
      match (G.Box.intersection a b, G.Box.intersection b a) with
      | None, None -> not (G.Box.overlaps a b)
      | Some i, Some j ->
          G.Box.equal i j && G.Box.contains_box a i && G.Box.contains_box b i
      | _ -> false)

(* [Shape.decompose] of a box, the int-bounds fold over its clip, is
   element for element [Decompose.run] over the box's classifier: for
   boxes inside the grid, straddling its edge and wholly outside it,
   under the default, [max_level] and [max_elements] budgets. *)
let prop_box_decompose_is_run =
  let side = Z.Space.side s5 in
  let range lo hi =
    QCheck2.Gen.(map (fun (a, b) -> (min a b, max a b)) (pair (int_range lo hi) (int_range lo hi)))
  in
  let gen_ranges =
    QCheck2.Gen.(
      oneof
        [
          (* inside the grid *)
          pair (range 0 (side - 1)) (range 0 (side - 1));
          (* from beyond the low edge to beyond the high one *)
          pair (range (-side) (2 * side)) (range (-side) (2 * side));
          (* wholly outside: one axis misses the grid *)
          map3
            (fun miss other swap -> if swap then (other, miss) else (miss, other))
            (oneof [ range (-side) (-1); range side (2 * side) ])
            (range (-side) (2 * side))
            bool;
        ])
  in
  let gen_options =
    QCheck2.Gen.(
      oneof
        [
          return Z.Decompose.default_options;
          map
            (fun l -> { Z.Decompose.max_level = Some l; max_elements = None })
            (int_range 0 12);
          map
            (fun m -> { Z.Decompose.max_level = None; max_elements = Some m })
            (int_range 1 40);
        ])
  in
  let print (((x0, x1), (y0, y1)), { Z.Decompose.max_level; max_elements }) =
    let budget = function None -> "-" | Some v -> string_of_int v in
    Printf.sprintf "[%d:%d; %d:%d] max_level %s max_elements %s" x0 x1 y0 y1
      (budget max_level) (budget max_elements)
  in
  QCheck2.Test.make ~name:"box decompose = run over its classifier" ~count:500 ~print
    QCheck2.Gen.(pair gen_ranges gen_options)
    (fun ((xr, yr), options) ->
      let shape = G.Shape.Box (G.Box.of_ranges [ xr; yr ]) in
      List.equal Z.Element.equal
        (G.Shape.decompose ~options s5 shape)
        (Z.Decompose.run ~options s5 (G.Shape.classifier s5 shape)))

let () =
  Alcotest.run "geom"
    [
      ( "point",
        [
          Alcotest.test_case "basics" `Quick test_point;
          Alcotest.test_case "dim mismatch" `Quick test_point_dim_mismatch;
        ] );
      ( "box",
        [
          Alcotest.test_case "basics" `Quick test_box_basics;
          Alcotest.test_case "invalid" `Quick test_box_invalid;
          Alcotest.test_case "relations" `Quick test_box_relations;
          Alcotest.test_case "clip and translate" `Quick test_box_clip_translate;
          Alcotest.test_case "classifier clips to grid" `Quick test_box_classifier_clips;
        ] );
      ( "polygon",
        [
          Alcotest.test_case "area" `Quick test_polygon_area;
          Alcotest.test_case "contains_cell" `Quick test_polygon_contains;
          Alcotest.test_case "concave" `Quick test_polygon_concave;
          Alcotest.test_case "classify_box" `Quick test_polygon_classify;
          Alcotest.test_case "decompose consistent" `Quick test_polygon_decompose_consistent;
        ] );
      ( "circle",
        [
          Alcotest.test_case "contains_cell" `Quick test_circle;
          Alcotest.test_case "classify_box" `Quick test_circle_classify;
          Alcotest.test_case "decomposed area" `Quick test_circle_decompose_area;
        ] );
      ("shape", [ Alcotest.test_case "dispatch" `Quick test_shape_dispatch ]);
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_circle_classifier_consistent;
            prop_box_intersection_symmetric;
            prop_box_decompose_is_run;
          ] );
    ]
