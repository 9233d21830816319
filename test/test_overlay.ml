module O = Sqp_core.Overlay
module Z = Sqp_zorder
module G = Sqp_grid.Bitgrid
module W = Sqp_workload

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let space = Z.Space.make ~dims:2 ~depth:5

let layer_of_box lo hi =
  List.map (fun e -> (e, ())) (Z.Decompose.decompose_box space ~lo ~hi)

let grid_of layer = G.of_elements space (List.map fst layer)

let random_layer seed =
  let rng = W.Rng.create ~seed in
  let g = G.create ~side:32 in
  for _ = 1 to 3 + W.Rng.int rng 5 do
    let w = 1 + W.Rng.int rng 12 and h = 1 + W.Rng.int rng 12 in
    let x = W.Rng.int rng (32 - w) and y = W.Rng.int rng (32 - h) in
    for i = x to x + w - 1 do
      for j = y to y + h - 1 do
        G.set g i j true
      done
    done
  done;
  (List.map (fun e -> (e, ())) (G.to_elements space g), g)

let test_check_layer () =
  let good = layer_of_box [| 2; 3 |] [| 9; 12 |] in
  check "valid" true (O.check_layer good = Ok ());
  (* Reversed order is invalid. *)
  (match O.check_layer (List.rev good) with
  | Error _ -> ()
  | Ok () -> if List.length good > 1 then Alcotest.fail "reversal accepted");
  (* Nested elements are invalid. *)
  let nested = [ (Z.Bitstring.of_string "0", ()); (Z.Bitstring.of_string "00", ()) ] in
  match O.check_layer nested with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "nested accepted"

let test_overlay_labels () =
  let a = layer_of_box [| 0; 0 |] [| 15; 15 |] in
  let b = layer_of_box [| 8; 8 |] [| 23; 23 |] in
  let out, stats = O.overlay space a b in
  check "valid output" true
    (O.check_layer (List.map (fun (e, _) -> (e, ())) out) = Ok ());
  let cells keep = O.cells space (List.filter (fun (_, l) -> keep l) out) in
  Alcotest.(check (float 0.1)) "a only" (256.0 -. 64.0)
    (cells (function Some (), None -> true | _ -> false));
  Alcotest.(check (float 0.1)) "both" 64.0
    (cells (function Some (), Some () -> true | _ -> false));
  Alcotest.(check (float 0.1)) "b only" (256.0 -. 64.0)
    (cells (function None, Some () -> true | _ -> false));
  check "segments sane" true (stats.O.segments >= 3)

let test_overlay_empty () =
  let a = layer_of_box [| 0; 0 |] [| 7; 7 |] in
  let out, _ = O.overlay space a [] in
  check "same area" true (O.cells space out = O.cells space a);
  check "labels are a-only" true
    (List.for_all (function _, (Some (), None) -> true | _ -> false) out);
  let out2, _ = O.overlay space [] [] in
  check "empty" true (out2 = [])

let test_boolean_ops_vs_grid () =
  for seed = 1 to 15 do
    let la, ga = random_layer seed in
    let lb, gb = random_layer (seed + 100) in
    List.iter
      (fun (name, op, gop) ->
        let result = op space la lb in
        (match O.check_layer result with
        | Ok () -> ()
        | Error m -> Alcotest.failf "%s invalid layer: %s" name m);
        let expected, _ = gop ga gb in
        if not (G.equal (grid_of result) expected) then
          Alcotest.failf "%s mismatch at seed %d" name seed)
      [
        ("union", O.union, G.union);
        ("inter", O.inter, G.inter);
        ("diff", O.diff, G.diff);
        ("xor", O.xor, G.xor);
      ]
  done

let test_boolean_canonical () =
  (* Union of the two halves must canonicalize back to the root. *)
  let left = layer_of_box [| 0; 0 |] [| 15; 31 |] in
  let right = layer_of_box [| 16; 0 |] [| 31; 31 |] in
  match O.union space left right with
  | [ (e, ()) ] -> check_int "root" 0 (Z.Element.level e)
  | l -> Alcotest.failf "expected single root element, got %d" (List.length l)

let test_of_shape () =
  let layer =
    O.of_shape space (Sqp_geom.Shape.Box (Sqp_geom.Box.of_ranges [ (1, 6); (2, 9) ])) "lbl"
  in
  check "labelled" true (List.for_all (fun (_, l) -> l = "lbl") layer);
  Alcotest.(check (float 0.1)) "area" 48.0 (O.cells space layer)

let test_invalid_input_rejected () =
  let bad = [ (Z.Bitstring.of_string "0", ()); (Z.Bitstring.of_string "00", ()) ] in
  match O.overlay space bad [] with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

(* Properties *)

let gen_boxes =
  QCheck2.Gen.(
    let coord = int_bound 31 in
    map
      (fun (x1, x2, y1, y2) ->
        ([| min x1 x2; min y1 y2 |], [| max x1 x2; max y1 y2 |]))
      (quad coord coord coord coord))

let prop_union_area =
  QCheck2.Test.make ~name:"inclusion-exclusion on areas" ~count:200
    QCheck2.Gen.(pair gen_boxes gen_boxes)
    (fun ((lo1, hi1), (lo2, hi2)) ->
      let a = layer_of_box lo1 hi1 and b = layer_of_box lo2 hi2 in
      let area l = O.cells space l in
      let u = O.union space a b and i = O.inter space a b in
      abs_float (area u +. area i -. (area a +. area b)) < 0.5)

let prop_xor_is_union_minus_inter =
  QCheck2.Test.make ~name:"xor = union - inter" ~count:200
    QCheck2.Gen.(pair gen_boxes gen_boxes)
    (fun ((lo1, hi1), (lo2, hi2)) ->
      let a = layer_of_box lo1 hi1 and b = layer_of_box lo2 hi2 in
      let x = O.xor space a b in
      let alt = O.diff space (O.union space a b) (O.inter space a b) in
      List.equal (fun (e1, ()) (e2, ()) -> Z.Bitstring.equal e1 e2) x alt)

let () =
  Alcotest.run "overlay"
    [
      ( "unit",
        [
          Alcotest.test_case "check_layer" `Quick test_check_layer;
          Alcotest.test_case "overlay labels and areas" `Quick test_overlay_labels;
          Alcotest.test_case "overlay with empty" `Quick test_overlay_empty;
          Alcotest.test_case "boolean ops = grid oracle" `Quick test_boolean_ops_vs_grid;
          Alcotest.test_case "canonical output" `Quick test_boolean_canonical;
          Alcotest.test_case "of_shape" `Quick test_of_shape;
          Alcotest.test_case "invalid input rejected" `Quick test_invalid_input_rejected;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_union_area; prop_xor_is_union_minus_inter ] );
    ]
