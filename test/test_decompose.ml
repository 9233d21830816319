module Z = Sqp_zorder
module B = Z.Bitstring
module D = Z.Decompose

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let s23 = Z.Space.make ~dims:2 ~depth:3

let strings els = List.map B.to_string els

let test_paper_figure2 () =
  (* The exact decomposition shown in Figure 2. *)
  let els = D.decompose_box s23 ~lo:[| 1; 0 |] ~hi:[| 3; 4 |] in
  Alcotest.(check (list string)) "elements"
    [ "00001"; "00011"; "001"; "010010"; "011000"; "011010" ]
    (strings els)

let test_whole_space () =
  let side = Z.Space.side s23 - 1 in
  let els = D.decompose_box s23 ~lo:[| 0; 0 |] ~hi:[| side; side |] in
  Alcotest.(check (list string)) "root only" [ "" ] (strings els)

let test_single_pixel () =
  let els = D.decompose_box s23 ~lo:[| 3; 5 |] ~hi:[| 3; 5 |] in
  Alcotest.(check (list string)) "one full-depth element" [ "011011" ] (strings els)

let test_half_space () =
  let els = D.decompose_box s23 ~lo:[| 0; 0 |] ~hi:[| 3; 7 |] in
  Alcotest.(check (list string)) "left half" [ "0" ] (strings els)

(* Boxes touching the 2^depth border — the element ranges these produce
   end exactly at the last z value, which is what the z-prefix sharder's
   final shard must absorb. *)
let test_border_touching_boxes () =
  let side = Z.Space.side s23 in
  let last = side - 1 in
  let cases =
    [
      ("right column", [| last; 0 |], [| last; last |]);
      ("top row", [| 0; last |], [| last; last |]);
      ("corner pixel", [| last; last |], [| last; last |]);
      ("origin pixel", [| 0; 0 |], [| 0; 0 |]);
      ("all but one row", [| 0; 1 |], [| last; last |]);
      ("interior crossing all quadrants", [| 1; 1 |], [| last - 1; last - 1 |]);
    ]
  in
  List.iter
    (fun (name, lo, hi) ->
      let classify = D.box_classifier s23 ~lo ~hi in
      let els = D.run s23 classify in
      check (name ^ ": exact cover") true (D.is_exact_cover s23 classify els);
      let area =
        List.fold_left (fun acc e -> acc +. Z.Element.cells s23 e) 0.0 els
      in
      let expected = float_of_int ((hi.(0) - lo.(0) + 1) * (hi.(1) - lo.(1) + 1)) in
      check (name ^ ": area") true (abs_float (area -. expected) < 0.5);
      (* The elements convert to in-range z intervals — the sharder clips
         against these, so the last one must not overshoot 2^total - 1. *)
      let intervals = Z.Zrange.elements_to_intervals s23 els in
      List.iter
        (fun (ilo, ihi) ->
          check (name ^ ": interval in range") true
            (0 <= ilo && ilo <= ihi && ihi <= (side * side) - 1))
        intervals;
      if hi.(0) = last && hi.(1) = last then
        check (name ^ ": reaches the last z value") true
          (snd (List.nth intervals (List.length intervals - 1)) = (side * side) - 1))
    cases

let test_invalid_box () =
  (* Rejected under every budget, even one that would stop at the root,
     exactly where box_classifier rejects them. *)
  let wide = Z.Space.make ~dims:1 ~depth:61 in
  List.iter
    (fun (space, lo, hi) ->
      List.iter
        (fun options ->
          (match D.box_classifier space ~lo ~hi Z.Element.root with
          | _ -> Alcotest.fail "box_classifier: expected Invalid_argument"
          | exception Invalid_argument _ -> ());
          match D.decompose_box ~options space ~lo ~hi with
          | _ -> Alcotest.fail "decompose_box: expected Invalid_argument"
          | exception Invalid_argument _ -> ())
        [
          D.default_options;
          { D.max_level = Some 0; max_elements = None };
          { D.max_level = None; max_elements = Some 0 };
        ])
    [
      (s23, [| 3; 3 |], [| 2; 3 |]);
      (s23, [| 0; 0 |], [| 8; 3 |]);
      (s23, [| -1; 0 |], [| 3; 3 |]);
      (s23, [| 0 |], [| 3 |]);
      (wide, [| 0 |], [| 1 lsl 61 |]);
      (wide, [| -1 |], [| 1 |]);
    ]

let test_count_matches_run () =
  for xlo = 0 to 3 do
    for yhi = 3 to 7 do
      let lo = [| xlo; 1 |] and hi = [| 5; yhi |] in
      check_int "count = |run|"
        (List.length (D.decompose_box s23 ~lo ~hi))
        (D.count s23 (D.box_classifier s23 ~lo ~hi))
    done
  done

let test_seq_matches_run () =
  let lo = [| 1; 0 |] and hi = [| 3; 4 |] in
  let eager = D.decompose_box s23 ~lo ~hi in
  let lazy_ = List.of_seq (D.to_seq s23 (D.box_classifier s23 ~lo ~hi)) in
  check "same" true (List.equal B.equal eager lazy_)

let test_seq_from () =
  let lo = [| 1; 0 |] and hi = [| 3; 4 |] in
  let classify = D.box_classifier s23 ~lo ~hi in
  let all = D.decompose_box s23 ~lo ~hi in
  (* From every possible pixel z value, seq_from must produce exactly the
     suffix of elements whose zhi >= that value. *)
  for r = 0 to 63 do
    let zmin = B.of_int r ~width:6 in
    let expected =
      List.filter (fun e -> B.compare (Z.Element.zhi s23 e) zmin >= 0) all
    in
    let got = List.of_seq (D.seq_from s23 classify zmin) in
    if not (List.equal B.equal expected got) then
      Alcotest.failf "seq_from mismatch at z=%d" r
  done

let test_max_level () =
  let options = { D.max_level = Some 2; max_elements = None } in
  let els = D.decompose_box ~options s23 ~lo:[| 1; 0 |] ~hi:[| 3; 4 |] in
  check "coarse" true (List.for_all (fun e -> Z.Element.level e <= 2) els);
  (* Coarse decomposition over-approximates: every exact element is
     contained in some coarse element. *)
  let exact = D.decompose_box s23 ~lo:[| 1; 0 |] ~hi:[| 3; 4 |] in
  check "covers exact" true
    (List.for_all
       (fun e -> List.exists (fun c -> Z.Element.contains c e) els)
       exact)

let test_max_elements_budget () =
  let options = { D.max_level = None; max_elements = Some 3 } in
  let els = D.decompose_box ~options s23 ~lo:[| 1; 0 |] ~hi:[| 3; 4 |] in
  let exact = D.decompose_box s23 ~lo:[| 1; 0 |] ~hi:[| 3; 4 |] in
  check "fewer elements" true (List.length els <= List.length exact);
  check "covers exact" true
    (List.for_all
       (fun e -> List.exists (fun c -> Z.Element.contains c e) els)
       exact)

let test_is_exact_cover () =
  let lo = [| 1; 0 |] and hi = [| 3; 4 |] in
  let classify = D.box_classifier s23 ~lo ~hi in
  check "exact" true (D.is_exact_cover s23 classify (D.run s23 classify));
  (* Remove one element: no longer a cover. *)
  match D.run s23 classify with
  | _ :: rest -> check "broken" false (D.is_exact_cover s23 classify rest)
  | [] -> Alcotest.fail "unexpected empty decomposition"

let test_classifier_classes () =
  let classify = D.box_classifier s23 ~lo:[| 2; 0 |] ~hi:[| 3; 3 |] in
  check "inside" true (classify (B.of_string "001") = D.Inside);
  check "outside" true (classify (B.of_string "1") = D.Outside);
  check "crosses" true (classify B.empty = D.Crosses)

(* Properties *)

let gen_box side =
  QCheck2.Gen.(
    let coord = int_bound (side - 1) in
    map
      (fun (x1, x2, y1, y2) -> ([| min x1 x2; min y1 y2 |], [| max x1 x2; max y1 y2 |]))
      (quad coord coord coord coord))

let space6 = Z.Space.make ~dims:2 ~depth:6

let prop_sorted_disjoint =
  QCheck2.Test.make ~name:"decomposition z-sorted and disjoint" ~count:300
    (gen_box 64) (fun (lo, hi) ->
      let els = D.decompose_box space6 ~lo ~hi in
      let rec ok = function
        | [] | [ _ ] -> true
        | a :: (b :: _ as rest) -> Z.Element.precedes a b && ok rest
      in
      ok els)

let prop_area_preserved =
  QCheck2.Test.make ~name:"decomposition covers exactly the box area" ~count:300
    (gen_box 64) (fun (lo, hi) ->
      let els = D.decompose_box space6 ~lo ~hi in
      let area =
        List.fold_left (fun acc e -> acc +. Z.Element.cells space6 e) 0.0 els
      in
      let expected =
        float_of_int ((hi.(0) - lo.(0) + 1) * (hi.(1) - lo.(1) + 1))
      in
      abs_float (area -. expected) < 0.5)

let prop_exact_cover_small =
  QCheck2.Test.make ~name:"exact cover on tiny grids" ~count:100 (gen_box 8)
    (fun (lo, hi) ->
      let classify = D.box_classifier s23 ~lo ~hi in
      D.is_exact_cover s23 classify (D.run s23 classify))

let prop_pixel_membership =
  QCheck2.Test.make ~name:"pixel in box <=> covered by an element" ~count:100
    QCheck2.Gen.(pair (gen_box 16) (pair (int_bound 15) (int_bound 15)))
    (fun ((lo, hi), (px, py)) ->
      let s = Z.Space.make ~dims:2 ~depth:4 in
      let els = D.decompose_box s ~lo ~hi in
      let z = Z.Interleave.shuffle s [| px; py |] in
      let covered = List.exists (fun e -> B.is_prefix e z) els in
      let in_box = px >= lo.(0) && px <= hi.(0) && py >= lo.(1) && py <= hi.(1) in
      covered = in_box)

(* decompose_box against its oracle, run with box_classifier, element
   for element.  Spaces: narrow ones, where boxes span the whole grid,
   and the widest ones Space.make accepts (61 and 60 bits), where boxes
   stay within a 16-cell reach so the oracle stays fast.
   Boxes: random, a single pixel, the whole space, and random boxes
   flattened to one cell on one axis. *)
let diff_spaces = [| (1, 16); (2, 10); (3, 7); (1, 61); (3, 20); (2, 30) |]

let gen_diff_case =
  let open QCheck2.Gen in
  let* dims, depth = oneofa diff_spaces in
  let space = Z.Space.make ~dims ~depth in
  let side = Z.Space.side space and total = Z.Space.total_bits space in
  let reach = if total <= 24 then side else 16 in
  let* origin = array_size (pure dims) (int_bound (side - reach)) in
  let* a = array_size (pure dims) (int_bound (reach - 1)) in
  let* b = array_size (pure dims) (int_bound (reach - 1)) in
  let* flat = int_bound (dims - 1) in
  let random =
    ( Array.init dims (fun i -> origin.(i) + min a.(i) b.(i)),
      Array.init dims (fun i -> origin.(i) + max a.(i) b.(i)) )
  in
  let pixel = Array.mapi (fun i o -> o + a.(i)) origin in
  let slab =
    let lo, hi = random in
    (lo, Array.mapi (fun i h -> if i = flat then lo.(i) else h) hi)
  in
  let* lo, hi =
    oneofl [ random; (pixel, pixel); (Array.make dims 0, Array.make dims (side - 1)); slab ]
  in
  let* options =
    oneofl
      (D.default_options
      :: List.map
           (fun l -> { D.max_level = Some l; max_elements = None })
           [ 0; 1; total / 2; total ]
      @ List.map
          (fun b -> { D.max_level = None; max_elements = Some b })
          [ 0; 1; 7 ])
  in
  pure (space, lo, hi, options)

let print_diff_case (space, lo, hi, options) =
  let ints a = String.concat "," (Array.to_list (Array.map string_of_int a)) in
  let opt = function None -> "-" | Some v -> string_of_int v in
  Printf.sprintf "%dx%d lo=[%s] hi=[%s] max_level=%s max_elements=%s"
    (Z.Space.dims space) (Z.Space.depth space) (ints lo) (ints hi)
    (opt options.D.max_level) (opt options.D.max_elements)

let prop_box_matches_run =
  QCheck2.Test.make ~name:"decompose_box = run with box_classifier" ~count:600
    ~print:print_diff_case gen_diff_case (fun (space, lo, hi, options) ->
      List.equal B.equal
        (D.decompose_box ~options space ~lo ~hi)
        (D.run ~options space (D.box_classifier space ~lo ~hi)))

(* The merges' key ranges come from the same fold as the element list:
   entry j is [Zkernel.element_keys] of element j. *)
let prop_key_ranges =
  QCheck2.Test.make ~name:"key_ranges = element_keys of decompose_box" ~count:600
    ~print:print_diff_case gen_diff_case (fun (space, lo, hi, _) ->
      let total = Z.Space.total_bits space in
      let keys = List.map (Z.Zkernel.element_keys ~total) (D.decompose_box space ~lo ~hi) in
      let { Z.Zkernel.klo; khi } = D.key_ranges space ~lo ~hi in
      Array.to_list (Array.map2 (fun a b -> (a, b)) klo khi) = keys)

let () =
  Alcotest.run "decompose"
    [
      ( "unit",
        [
          Alcotest.test_case "paper figure 2" `Quick test_paper_figure2;
          Alcotest.test_case "whole space" `Quick test_whole_space;
          Alcotest.test_case "single pixel" `Quick test_single_pixel;
          Alcotest.test_case "half space" `Quick test_half_space;
          Alcotest.test_case "border-touching boxes" `Quick test_border_touching_boxes;
          Alcotest.test_case "invalid box" `Quick test_invalid_box;
          Alcotest.test_case "count = run length" `Quick test_count_matches_run;
          Alcotest.test_case "lazy = eager" `Quick test_seq_matches_run;
          Alcotest.test_case "seq_from skips correctly" `Quick test_seq_from;
          Alcotest.test_case "max_level coarsening" `Quick test_max_level;
          Alcotest.test_case "max_elements budget" `Quick test_max_elements_budget;
          Alcotest.test_case "is_exact_cover" `Quick test_is_exact_cover;
          Alcotest.test_case "classifier classes" `Quick test_classifier_classes;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_sorted_disjoint;
            prop_area_preserved;
            prop_exact_cover_small;
            prop_pixel_membership;
          ]
        @ [
            QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 1986 |])
              prop_box_matches_run;
            QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 1986 |])
              prop_key_ranges;
          ] );
    ]
