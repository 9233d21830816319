module RS = Sqp_core.Range_search
module Z = Sqp_zorder
module W = Sqp_workload

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let space = Z.Space.make ~dims:2 ~depth:6

let make_points ?(n = 200) ?(seed = 1) () =
  let rng = W.Rng.create ~seed in
  Array.mapi (fun i p -> (p, i)) (W.Datagen.uniform rng ~side:64 ~n ~dims:2)

let brute pts box =
  Array.to_list pts
  |> List.filter (fun (p, _) -> Sqp_geom.Box.contains_point box p)
  |> List.sort (fun (a, _) (b, _) ->
         compare (Z.Interleave.rank space a) (Z.Interleave.rank space b))

let test_prepare () =
  let prep = RS.prepare space (make_points ()) in
  check_int "length" 200 (RS.prepared_length prep)

let test_plain_and_skip_agree_with_brute () =
  let pts = make_points () in
  let prep = RS.prepare space pts in
  let rng = W.Rng.create ~seed:77 in
  for _ = 1 to 60 do
    let x1 = W.Rng.int rng 64 and x2 = W.Rng.int rng 64 in
    let y1 = W.Rng.int rng 64 and y2 = W.Rng.int rng 64 in
    let box =
      Sqp_geom.Box.make ~lo:[| min x1 x2; min y1 y2 |] ~hi:[| max x1 x2; max y1 y2 |]
    in
    let expected = brute pts box in
    let plain, _ = RS.search_plain prep box in
    let skip, _ = RS.search_skip prep box in
    if plain <> expected then Alcotest.fail "plain mismatch";
    if skip <> expected then Alcotest.fail "skip mismatch"
  done

let test_skip_does_less_work_on_small_queries () =
  let pts = make_points ~n:1000 () in
  let prep = RS.prepare space pts in
  let box = Sqp_geom.Box.of_ranges [ (2, 6); (50, 55) ] in
  let _, plain = RS.search_plain prep box in
  let _, skip = RS.search_skip prep box in
  check "skips points" true (skip.RS.point_steps < plain.RS.point_steps);
  check "uses jumps" true (skip.RS.point_jumps + skip.RS.element_jumps > 0)

let test_empty_inputs () =
  let prep = RS.prepare space [||] in
  let box = Sqp_geom.Box.of_ranges [ (0, 10); (0, 10) ] in
  check "no points" true (fst (RS.search_skip prep box) = []);
  check "no points plain" true (fst (RS.search_plain prep box) = [])

let test_out_of_grid_box () =
  let prep = RS.prepare space (make_points ()) in
  let box = Sqp_geom.Box.of_ranges [ (100, 200); (100, 200) ] in
  check "nothing" true (fst (RS.search_skip prep box) = []);
  (* Partially outside is clipped. *)
  let box2 = Sqp_geom.Box.of_ranges [ (-10, 63); (-10, 63) ] in
  check_int "clipped to whole grid" 200 (List.length (fst (RS.search_skip prep box2)))

let test_duplicate_points () =
  let pts = [| ([| 5; 5 |], 0); ([| 5; 5 |], 1); ([| 6; 6 |], 2) |] in
  let prep = RS.prepare space pts in
  let box = Sqp_geom.Box.of_ranges [ (5, 5); (5, 5) ] in
  check_int "both duplicates found" 2 (List.length (fst (RS.search_skip prep box)))

let test_trace_reports_matches () =
  let pts = [| ([| 2; 1 |], 0); ([| 6; 6 |], 1) |] in
  let prep = RS.prepare space pts in
  let box = Sqp_geom.Box.of_ranges [ (1, 3); (0, 4) ] in
  let results, trace = RS.search_trace prep box in
  check_int "one match" 1 (List.length results);
  check "trace nonempty" true (List.length trace >= 2);
  check "reports the point" true
    (List.exists
       (fun s ->
         String.length s.RS.description >= 6
         && String.sub s.RS.description 0 5 = "point"
         && String.length s.RS.description > 0)
       trace)

let test_counters_zero_on_empty () =
  let prep = RS.prepare space [||] in
  let _, c = RS.search_skip prep (Sqp_geom.Box.of_ranges [ (200, 300); (0, 1) ]) in
  check_int "no comparisons" 0 c.RS.comparisons

(* Property: agreement with brute force over random configurations. *)

let prop_agreement =
  QCheck2.Test.make ~name:"plain = skip = brute force" ~count:60
    QCheck2.Gen.(
      tup3 (int_range 0 10000)
        (pair (int_bound 63) (int_bound 63))
        (pair (int_bound 63) (int_bound 63)))
    (fun (seed, (x1, y1), (x2, y2)) ->
      let pts = make_points ~n:120 ~seed () in
      let prep = RS.prepare space pts in
      let box =
        Sqp_geom.Box.make ~lo:[| min x1 x2; min y1 y2 |] ~hi:[| max x1 x2; max y1 y2 |]
      in
      let expected = brute pts box in
      fst (RS.search_plain prep box) = expected
      && fst (RS.search_skip prep box) = expected)

(* The prepared-array iterations allocate their key ranges and O(1)
   words, nothing per point: over the whole grid of 16,200 points with
   a no-op callback, under 1,000 minor words (exact in native code). *)
let test_iteration_allocation () =
  Sqp_obs.Trace.set_global Sqp_obs.Trace.null;
  let space = Z.Space.make ~dims:2 ~depth:10 in
  let rng = W.Rng.create ~seed:4 in
  let pts = Array.mapi (fun i p -> (p, i)) (W.Datagen.uniform rng ~side:1024 ~n:16_200 ~dims:2) in
  let prep = RS.prepare space pts in
  let whole = Sqp_geom.Box.make ~lo:[| 0; 0 |] ~hi:[| 1023; 1023 |] in
  List.iter
    (fun (name, iter) ->
      let before = Gc.minor_words () in
      let c = iter prep whole (fun _ -> ()) in
      let words = Gc.minor_words () -. before in
      check_int (name ^ ": every point stepped") 16_200 c.RS.point_steps;
      if words >= 1000. then
        Alcotest.failf "%s over the whole grid allocated %.0f minor words" name words)
    [ ("iter_plain", RS.iter_plain); ("iter_skip", RS.iter_skip) ]

let () =
  Alcotest.run "range_search"
    [
      ( "unit",
        [
          Alcotest.test_case "prepare" `Quick test_prepare;
          Alcotest.test_case "agrees with brute force" `Quick
            test_plain_and_skip_agree_with_brute;
          Alcotest.test_case "skip saves work" `Quick test_skip_does_less_work_on_small_queries;
          Alcotest.test_case "empty inputs" `Quick test_empty_inputs;
          Alcotest.test_case "out-of-grid box" `Quick test_out_of_grid_box;
          Alcotest.test_case "duplicate points" `Quick test_duplicate_points;
          Alcotest.test_case "trace" `Quick test_trace_reports_matches;
          Alcotest.test_case "counters on empty" `Quick test_counters_zero_on_empty;
          Alcotest.test_case "iterations allocate O(1)" `Quick test_iteration_allocation;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest [ prop_agreement ]);
    ]
