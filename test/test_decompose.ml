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
  List.iter
    (fun (lo, hi) ->
      match D.decompose_box s23 ~lo ~hi with
      | _ -> Alcotest.fail "expected Invalid_argument"
      | exception Invalid_argument _ -> ())
    [
      ([| 3; 3 |], [| 2; 3 |]);
      ([| 0; 0 |], [| 8; 3 |]);
      ([| -1; 0 |], [| 3; 3 |]);
      ([| 0 |], [| 3 |]);
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

(* Decomposition cache *)

let test_cache_hit_miss () =
  D.reset_cache ();
  let lo = [| 1; 0 |] and hi = [| 3; 4 |] in
  let first = D.decompose_box s23 ~lo ~hi in
  let stats = D.cache_stats () in
  check_int "one miss" 1 stats.D.misses;
  check_int "no hit yet" 0 stats.D.hits;
  let second = D.decompose_box s23 ~lo ~hi in
  let stats = D.cache_stats () in
  check_int "still one miss" 1 stats.D.misses;
  check_int "one hit" 1 stats.D.hits;
  check "hit returns the same elements" true (List.equal B.equal first second);
  (* mutating the caller's arrays must not poison the cache key *)
  lo.(0) <- 0;
  let moved = D.decompose_box s23 ~lo:[| 1; 0 |] ~hi in
  check "copied key unaffected by mutation" true (List.equal B.equal first moved);
  check_int "mutation-safe key still hits" 2 (D.cache_stats ()).D.hits

let test_cache_distinguishes_inputs () =
  D.reset_cache ();
  let a = D.decompose_box s23 ~lo:[| 1; 0 |] ~hi:[| 3; 4 |] in
  let b = D.decompose_box s23 ~lo:[| 1; 0 |] ~hi:[| 3; 5 |] in
  check "different boxes differ" false (List.equal B.equal a b);
  (* same box, different options -> different entry, not a stale hit *)
  let options = { D.max_level = Some 2; max_elements = None } in
  let coarse = D.decompose_box ~options s23 ~lo:[| 1; 0 |] ~hi:[| 3; 4 |] in
  check "options are part of the key" false (List.equal B.equal a coarse);
  (* different space, same bounds *)
  let s24 = Z.Space.make ~dims:2 ~depth:4 in
  let deeper = D.decompose_box s24 ~lo:[| 1; 0 |] ~hi:[| 3; 4 |] in
  check "space is part of the key" false (List.equal B.equal a deeper);
  check_int "four distinct misses" 4 (D.cache_stats ()).D.misses

let test_cache_eviction () =
  D.reset_cache ~capacity:2 ();
  let box i = D.decompose_box s23 ~lo:[| 0; 0 |] ~hi:[| i; i |] |> ignore in
  box 1;
  box 2;
  box 3;
  (* capacity 2: box 1 evicted *)
  check_int "one eviction" 1 (D.cache_stats ()).D.evictions;
  box 1;
  let stats = D.cache_stats () in
  check_int "re-decomposed after eviction" 4 stats.D.misses;
  check_int "no hits in this sequence" 0 stats.D.hits;
  D.reset_cache ()

let test_cache_invalid_box_still_raises () =
  D.reset_cache ();
  (match D.decompose_box s23 ~lo:[| 3; 3 |] ~hi:[| 2; 3 |] with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ());
  check_int "invalid input never cached" 0 (D.cache_stats ()).D.misses

(* The LRU itself, driven directly. *)
let test_lru_unit () =
  let lru = Z.Lru.create ~capacity:2 in
  check_int "capacity" 2 (Z.Lru.capacity lru);
  check "evict on empty-miss" false (Z.Lru.add lru "a" 1);
  check "no evict under capacity" false (Z.Lru.add lru "b" 2);
  check "find a" true (Z.Lru.find lru "a" = Some 1);
  (* "a" is now most recent, so inserting "c" evicts "b" *)
  check "evict at capacity" true (Z.Lru.add lru "c" 3);
  check "b evicted" true (Z.Lru.find lru "b" = None);
  check "a survives" true (Z.Lru.find lru "a" = Some 1);
  check "c present" true (Z.Lru.find lru "c" = Some 3);
  check_int "length" 2 (Z.Lru.length lru);
  (* overwrite refreshes, does not evict *)
  check "overwrite" false (Z.Lru.add lru "a" 10);
  check "overwritten" true (Z.Lru.find lru "a" = Some 10);
  Z.Lru.clear lru;
  check_int "cleared" 0 (Z.Lru.length lru);
  check "cleared find" true (Z.Lru.find lru "a" = None);
  match Z.Lru.create ~capacity:0 with
  | _ -> Alcotest.fail "capacity 0 should raise"
  | exception Invalid_argument _ -> ()

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
      ( "cache",
        [
          Alcotest.test_case "hit/miss accounting" `Quick test_cache_hit_miss;
          Alcotest.test_case "key covers box, options, space" `Quick
            test_cache_distinguishes_inputs;
          Alcotest.test_case "LRU eviction" `Quick test_cache_eviction;
          Alcotest.test_case "invalid boxes still raise" `Quick
            test_cache_invalid_box_still_raises;
          Alcotest.test_case "lru unit" `Quick test_lru_unit;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_sorted_disjoint;
            prop_area_preserved;
            prop_exact_cover_small;
            prop_pixel_membership;
          ] );
    ]
