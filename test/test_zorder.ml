(* Space, Interleave, Element, Curve. *)

module Z = Sqp_zorder
module B = Z.Bitstring

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let s23 = Z.Space.make ~dims:2 ~depth:3
let s34 = Z.Space.make ~dims:3 ~depth:4

let test_space () =
  check_int "dims" 2 (Z.Space.dims s23);
  check_int "depth" 3 (Z.Space.depth s23);
  check_int "side" 8 (Z.Space.side s23);
  check_int "total bits" 6 (Z.Space.total_bits s23);
  check_int "axis level 0" 0 (Z.Space.axis_of_level s23 0);
  check_int "axis level 1" 1 (Z.Space.axis_of_level s23 1);
  check_int "axis level 2" 0 (Z.Space.axis_of_level s23 2);
  Alcotest.(check (float 0.001)) "cells" 64.0 (Z.Space.cells s23);
  check "valid coord" true (Z.Space.valid_coord s23 7);
  check "invalid coord" false (Z.Space.valid_coord s23 8)

let test_space_invalid () =
  List.iter
    (fun f ->
      match f () with
      | _ -> Alcotest.fail "expected Invalid_argument"
      | exception Invalid_argument _ -> ())
    [
      (fun () -> Z.Space.make ~dims:0 ~depth:3);
      (fun () -> Z.Space.make ~dims:2 ~depth:(-1));
      (fun () -> Z.Space.make ~dims:100 ~depth:100);
    ]

let test_shuffle_paper_example () =
  (* Figure 4: [3, 5] -> (011, 101) -> 011011 = 27. *)
  check_str "z of (3,5)" "011011" (B.to_string (Z.Interleave.shuffle s23 [| 3; 5 |]));
  check_int "rank of (3,5)" 27 (Z.Interleave.rank s23 [| 3; 5 |])

let test_shuffle_origin_and_corner () =
  check_str "origin" "000000" (B.to_string (Z.Interleave.shuffle s23 [| 0; 0 |]));
  check_str "corner" "111111" (B.to_string (Z.Interleave.shuffle s23 [| 7; 7 |]))

let test_shuffle_3d () =
  (* x contributes bits 0,3,6,9; y bits 1,4,7,10; z bits 2,5,8,11 *)
  let z = Z.Interleave.shuffle s34 [| 0b1111; 0; 0 |] in
  check_str "x only" "100100100100" (B.to_string z)

let test_shuffle_invalid () =
  List.iter
    (fun coords ->
      match Z.Interleave.shuffle s23 coords with
      | _ -> Alcotest.fail "expected Invalid_argument"
      | exception Invalid_argument _ -> ())
    [ [| 1 |]; [| 1; 2; 3 |]; [| -1; 0 |]; [| 8; 0 |] ]

let test_unshuffle_full () =
  let z = Z.Interleave.shuffle s23 [| 5; 2 |] in
  let prefixes = Z.Interleave.unshuffle s23 z in
  Alcotest.(check (pair int int)) "x" (5, 3) prefixes.(0);
  Alcotest.(check (pair int int)) "y" (2, 3) prefixes.(1)

let test_unshuffle_partial () =
  (* "001" = first bit of x (0), first bit of y (0), second bit of x (1). *)
  let prefixes = Z.Interleave.unshuffle s23 (B.of_string "001") in
  Alcotest.(check (pair int int)) "x prefix" (1, 2) prefixes.(0);
  Alcotest.(check (pair int int)) "y prefix" (0, 1) prefixes.(1)

let test_point_of_rank () =
  Alcotest.(check (array int)) "inverse" [| 3; 5 |] (Z.Interleave.point_of_rank s23 27);
  for r = 0 to 63 do
    check_int "rank roundtrip" r (Z.Interleave.rank s23 (Z.Interleave.point_of_rank s23 r))
  done

let test_element_basics () =
  let e = B.of_string "001" in
  check_int "level" 3 (Z.Element.level e);
  check "not pixel" false (Z.Element.is_pixel s23 e);
  check "pixel" true (Z.Element.is_pixel s23 (B.of_string "001101"));
  check_int "split axis" 1 (Z.Element.split_axis s23 e);
  let lo, hi = Z.Element.children e in
  check_str "low child" "0010" (B.to_string lo);
  check_str "high child" "0011" (B.to_string hi);
  (match Z.Element.parent e with
  | Some p -> check_str "parent" "00" (B.to_string p)
  | None -> Alcotest.fail "parent expected");
  check "root has no parent" true (Z.Element.parent Z.Element.root = None)

let test_element_box_paper () =
  (* Figure 2: element 001 covers 2 <= X <= 3 and 0 <= Y <= 3. *)
  let lo, hi = Z.Element.box s23 (B.of_string "001") in
  Alcotest.(check (array int)) "lo" [| 2; 0 |] lo;
  Alcotest.(check (array int)) "hi" [| 3; 3 |] hi

let test_element_box_root () =
  let lo, hi = Z.Element.box s23 Z.Element.root in
  Alcotest.(check (array int)) "lo" [| 0; 0 |] lo;
  Alcotest.(check (array int)) "hi" [| 7; 7 |] hi

let test_element_of_box () =
  let of_box lo hi = Z.Element.of_box s23 ~lo ~hi in
  (match of_box [| 2; 0 |] [| 3; 3 |] with
  | Some e -> check_str "001" "001" (B.to_string e)
  | None -> Alcotest.fail "expected element");
  (match of_box [| 0; 0 |] [| 7; 7 |] with
  | Some e -> check_int "root" 0 (Z.Element.level e)
  | None -> Alcotest.fail "root expected");
  check "not aligned" true (of_box [| 1; 0 |] [| 2; 1 |] = None);
  check "not power of two" true (of_box [| 0; 0 |] [| 2; 2 |] = None);
  (* x split once more than y is fine: the level-3 element 000. *)
  (match of_box [| 0; 0 |] [| 1; 3 |] with
  | Some e -> Alcotest.(check string) "000" "000" (B.to_string e)
  | None -> Alcotest.fail "expected element 000");
  (* y-range wider than x-range is not a valid split pattern: the bottom
     half would need y split before x. *)
  check "bad interleave pattern" true (of_box [| 0; 0 |] [| 7; 3 |] = None);
  (* Prefix lengths differing by more than one are impossible too. *)
  check "lengths differ by 2" true (of_box [| 0; 0 |] [| 0; 3 |] = None);
  check "x wider ok" true (of_box [| 0; 0 |] [| 3; 3 |] <> None)

let test_element_zlo_zhi () =
  let e = B.of_string "001" in
  check_str "zlo" "001000" (B.to_string (Z.Element.zlo s23 e));
  check_str "zhi" "001111" (B.to_string (Z.Element.zhi s23 e))

let test_element_relations () =
  let e = B.of_string "001" and p = B.of_string "001101" in
  check "contains" true (Z.Element.contains e p);
  check "not contains" false (Z.Element.contains p e);
  check "contains self" true (Z.Element.contains e e);
  check "precedes" true (Z.Element.precedes (B.of_string "000") e);
  check "contains is not precedes" false (Z.Element.precedes e p)

let test_element_cells_sides () =
  let e = B.of_string "001" in
  Alcotest.(check (float 0.001)) "cells" 8.0 (Z.Element.cells s23 e);
  check_int "x side" 2 (Z.Element.side_along s23 e 0);
  check_int "y side" 4 (Z.Element.side_along s23 e 1)

let test_curve_traverse () =
  let pts = List.of_seq (Z.Curve.traverse s23) in
  check_int "count" 64 (List.length pts);
  (* Consecutive ranks. *)
  List.iteri (fun i p -> check_int "rank" i (Z.Curve.rank s23 p)) pts

let test_curve_distances () =
  check_int "chebyshev" 4 (Z.Curve.chebyshev_distance [| 0; 1 |] [| 4; 3 |]);
  check_int "rank distance" 27 (Z.Curve.rank_distance s23 [| 0; 0 |] [| 3; 5 |])

let test_step_lengths () =
  let steps = Z.Curve.step_lengths (Z.Space.make ~dims:2 ~depth:2) in
  check_int "count" 15 (List.length steps);
  (* The N-shape: most steps are unit, some are longer diagonal jumps. *)
  check "has unit steps" true (List.mem 1 steps);
  check "has jumps" true (List.exists (fun d -> d > 1) steps)

(* Properties *)

let gen_point side =
  QCheck2.Gen.(pair (int_bound (side - 1)) (int_bound (side - 1)))

let prop_shuffle_unshuffle =
  QCheck2.Test.make ~name:"shuffle/unshuffle roundtrip" ~count:500 (gen_point 256)
    (fun (x, y) ->
      let s = Z.Space.make ~dims:2 ~depth:8 in
      let prefixes = Z.Interleave.unshuffle s (Z.Interleave.shuffle s [| x; y |]) in
      prefixes.(0) = (x, 8) && prefixes.(1) = (y, 8))

let prop_element_box_roundtrip =
  QCheck2.Test.make ~name:"element -> box -> element" ~count:500
    QCheck2.Gen.(list_size (int_bound 12) bool)
    (fun bits ->
      let s = Z.Space.make ~dims:2 ~depth:6 in
      let e = B.of_bools bits in
      let lo, hi = Z.Element.box s e in
      match Z.Element.of_box s ~lo ~hi with
      | Some e' -> B.equal e e'
      | None -> false)

let prop_zorder_pixel_consecutive =
  (* Figure 3's theorem: pixel z values inside an element form exactly the
     interval [zlo, zhi]. *)
  QCheck2.Test.make ~name:"element pixels consecutive in z" ~count:200
    QCheck2.Gen.(list_size (int_bound 8) bool)
    (fun bits ->
      let s = Z.Space.make ~dims:2 ~depth:4 in
      let e = B.of_bools bits in
      let zlo = B.to_int (Z.Element.zlo s e) and zhi = B.to_int (Z.Element.zhi s e) in
      let lo, hi = Z.Element.box s e in
      let inside = ref 0 in
      let ok = ref true in
      for r = 0 to 255 do
        let p = Z.Interleave.point_of_rank s r in
        let is_in = p.(0) >= lo.(0) && p.(0) <= hi.(0) && p.(1) >= lo.(1) && p.(1) <= hi.(1) in
        if is_in then incr inside;
        if is_in <> (r >= zlo && r <= zhi) then ok := false
      done;
      !ok && !inside = zhi - zlo + 1)

let prop_rank_monotone_in_z =
  QCheck2.Test.make ~name:"rank order = z order" ~count:500
    QCheck2.Gen.(pair (gen_point 64) (gen_point 64))
    (fun ((x1, y1), (x2, y2)) ->
      let s = Z.Space.make ~dims:2 ~depth:6 in
      let za = Z.Interleave.shuffle s [| x1; y1 |]
      and zb = Z.Interleave.shuffle s [| x2; y2 |] in
      let sign c = Stdlib.compare c 0 in
      sign
        (compare (Z.Interleave.rank s [| x1; y1 |]) (Z.Interleave.rank s [| x2; y2 |]))
      = sign (B.compare za zb))

(* {1 The int interleave}

   [Interleave.word] is the one int interleave; [Interleave.rank],
   [Zkernel.point_key] and [Shard_map.z_of_point] are read off it.  Each
   is checked against its bitstring-built definition, kept here as the
   oracle, over 1-d to 7-d spaces up to the function's bound. *)

type int_z = {
  name : string;
  bound : int;  (* widest space, in total bits *)
  f : Z.Space.t -> int array -> int;
  oracle : Z.Space.t -> int array -> int;
}

let int_zs =
  [
    {
      name = "Interleave.rank";
      bound = 62;
      f = Z.Interleave.rank;
      oracle = (fun s p -> B.to_int (Z.Interleave.shuffle s p));
    };
    {
      name = "Zkernel.point_key";
      bound = Z.Zpacked.word_bits;
      f = Z.Zkernel.point_key;
      oracle = (fun s p -> Z.Zkernel.word_key (Z.Interleave.shuffle s p));
    };
    {
      name = "Shard_map.z_of_point";
      bound = 61;
      f = Sqp_server.Shard_map.z_of_point;
      oracle = (fun s p -> fst (Z.Zrange.of_element s (Z.Element.pixel s p)));
    };
  ]

(* A side of [2^depth] needs depth <= 61 ([Space.side]). *)
let max_depth ~bound dims = min 61 (bound / dims)

let show_point p =
  String.concat "," (Array.to_list (Array.map string_of_int p))

let gen_space_point ~bound =
  let open QCheck2.Gen in
  let* dims = int_range 1 7 in
  let* depth = int_range 0 (max_depth ~bound dims) in
  let side = 1 lsl depth in
  let coord =
    frequency [ (1, return 0); (1, return (side - 1)); (2, int_range 0 (side - 1)) ]
  in
  let+ p = array_size (return dims) coord in
  (Z.Space.make ~dims ~depth, p)

let prop_int_z iz =
  QCheck2.Test.make
    ~name:(iz.name ^ " = its bitstring definition")
    ~count:1000
    ~print:(fun (s, p) ->
      Printf.sprintf "%dd depth %d (%s)" (Z.Space.dims s) (Z.Space.depth s)
        (show_point p))
    (gen_space_point ~bound:iz.bound)
    (fun (s, p) -> iz.f s p = iz.oracle s p)

(* At each arity's widest space: the corners and an alternating point;
   one bit wider must raise. *)
let test_int_z_edges () =
  List.iter
    (fun iz ->
      for dims = 1 to 7 do
        let depth = max_depth ~bound:iz.bound dims in
        let s = Z.Space.make ~dims ~depth in
        let side = Z.Space.side s in
        List.iter
          (fun p ->
            let what =
              Printf.sprintf "%s, %dd depth %d (%s)" iz.name dims depth (show_point p)
            in
            Alcotest.(check int) what (iz.oracle s p) (iz.f s p))
          [
            Array.make dims 0;
            Array.make dims (side - 1);
            Array.init dims (fun i -> if i mod 2 = 0 then side - 1 else 0);
          ]
      done;
      (* [bound + 1] total bits at the narrowest arity that gets there
         exactly with a valid side, so the width alone must raise. *)
      let wide =
        List.find
          (fun (dims, depth) -> dims * depth = iz.bound + 1 && depth <= 61)
          (List.init 7 (fun i -> (i + 1, (iz.bound + 1) / (i + 1))))
      in
      let s = Z.Space.make ~dims:(fst wide) ~depth:(snd wide) in
      match iz.f s (Array.make (Z.Space.dims s) 0) with
      | _ ->
          Alcotest.failf "%s accepted a %d-bit space" iz.name (Z.Space.total_bits s)
      | exception Invalid_argument _ -> ())
    int_zs

let () =
  Alcotest.run "zorder"
    [
      ( "space",
        [
          Alcotest.test_case "basics" `Quick test_space;
          Alcotest.test_case "invalid" `Quick test_space_invalid;
        ] );
      ( "interleave",
        [
          Alcotest.test_case "paper example (3,5)=27" `Quick test_shuffle_paper_example;
          Alcotest.test_case "origin and corner" `Quick test_shuffle_origin_and_corner;
          Alcotest.test_case "3d" `Quick test_shuffle_3d;
          Alcotest.test_case "invalid" `Quick test_shuffle_invalid;
          Alcotest.test_case "unshuffle full" `Quick test_unshuffle_full;
          Alcotest.test_case "unshuffle partial" `Quick test_unshuffle_partial;
          Alcotest.test_case "point_of_rank" `Quick test_point_of_rank;
        ] );
      ( "element",
        [
          Alcotest.test_case "basics" `Quick test_element_basics;
          Alcotest.test_case "box (paper fig 2)" `Quick test_element_box_paper;
          Alcotest.test_case "box of root" `Quick test_element_box_root;
          Alcotest.test_case "of_box" `Quick test_element_of_box;
          Alcotest.test_case "zlo/zhi" `Quick test_element_zlo_zhi;
          Alcotest.test_case "relations" `Quick test_element_relations;
          Alcotest.test_case "cells and sides" `Quick test_element_cells_sides;
        ] );
      ( "curve",
        [
          Alcotest.test_case "traverse" `Quick test_curve_traverse;
          Alcotest.test_case "distances" `Quick test_curve_distances;
          Alcotest.test_case "step lengths" `Quick test_step_lengths;
        ] );
      ( "int interleave",
        Alcotest.test_case "edge points and the bound" `Quick test_int_z_edges
        :: List.map (fun iz -> QCheck_alcotest.to_alcotest (prop_int_z iz)) int_zs );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_shuffle_unshuffle;
            prop_element_box_roundtrip;
            prop_zorder_pixel_consecutive;
            prop_rank_monotone_in_z;
          ] );
    ]
