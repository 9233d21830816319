module Z = Sqp_zorder
module B = Z.Bitstring
module R = Z.Zrange

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let s23 = Z.Space.make ~dims:2 ~depth:3

(* Integer z intervals work on every space [Space.make] accepts: at the
   widest ones (61 and 60 bits) the last pixel's interval reaches
   [2^total - 1], a root cover is one element, and covers of intervals
   near the top are canonical. *)
let test_usable () =
  List.iter
    (fun (dims, depth) ->
      let s = Z.Space.make ~dims ~depth in
      let total = Z.Space.total_bits s in
      let last = (1 lsl total) - 1 in
      let corner = Z.Element.pixel s (Array.make dims (Z.Space.side s - 1)) in
      Alcotest.(check (pair int int)) "last pixel" (last, last) (R.of_element s corner);
      Alcotest.(check (pair int int)) "root" (0, last) (R.of_element s B.empty);
      check_int "whole space is one element" 1 (R.cover_count s ~lo:0 ~hi:last);
      let lo = max 0 (last - 1000) and hi = last - 3 in
      let cover = R.cover s ~lo ~hi in
      check "cover is the interval" true (R.elements_to_intervals s cover = [ (lo, hi) ]);
      check "to_element of an aligned block" true
        (R.to_element s ~lo:(last - 7) ~hi:last
        = Some (B.of_int ((last - 7) lsr 3) ~width:(total - 3)));
      match R.cover s ~lo:0 ~hi:(last + 1) with
      | _ -> Alcotest.fail "an interval past the space accepted"
      | exception Invalid_argument _ -> ())
    [ (1, 61); (3, 20); (2, 30); (2, 3) ]

let test_of_element () =
  Alcotest.(check (pair int int)) "001" (8, 15) (R.of_element s23 (B.of_string "001"));
  Alcotest.(check (pair int int)) "root" (0, 63) (R.of_element s23 B.empty);
  Alcotest.(check (pair int int)) "pixel" (27, 27)
    (R.of_element s23 (B.of_string "011011"))

let test_to_element () =
  (match R.to_element s23 ~lo:8 ~hi:15 with
  | Some e -> Alcotest.(check string) "001" "001" (B.to_string e)
  | None -> Alcotest.fail "element expected");
  check "unaligned" true (R.to_element s23 ~lo:9 ~hi:16 = None);
  check "not power of two" true (R.to_element s23 ~lo:8 ~hi:13 = None);
  check "out of range" true (R.to_element s23 ~lo:0 ~hi:64 = None)

let test_cover_single_element () =
  (* Covering exactly one element's range yields that element. *)
  List.iter
    (fun s ->
      let e = B.of_string s in
      let lo, hi = R.of_element s23 e in
      match R.cover s23 ~lo ~hi with
      | [ e' ] -> check ("cover " ^ s) true (B.equal e e')
      | other -> Alcotest.failf "cover %s: %d elements" s (List.length other))
    [ ""; "0"; "001"; "011011"; "1111" ]

let test_cover_unaligned () =
  (* [1, 6] = {1} {2,3} {4,5} {6}: buddy decomposition. *)
  let els = R.cover s23 ~lo:1 ~hi:6 in
  Alcotest.(check (list string)) "buddy"
    [ "000001"; "00001"; "00010"; "000110" ]
    (List.map B.to_string els)

let test_cover_count () =
  for lo = 0 to 63 do
    for hi = lo to 63 do
      check_int "count" (List.length (R.cover s23 ~lo ~hi)) (R.cover_count s23 ~lo ~hi)
    done
  done

let test_elements_to_intervals () =
  let els = [ B.of_string "000001"; B.of_string "00001"; B.of_string "00010" ] in
  Alcotest.(check (list (pair int int))) "merged" [ (1, 5) ]
    (R.elements_to_intervals s23 els);
  let gap = [ B.of_string "000001"; B.of_string "00010" ] in
  Alcotest.(check (list (pair int int))) "gap" [ (1, 1); (4, 5) ]
    (R.elements_to_intervals s23 gap)

let test_total_cells () =
  check_int "cells" 7 (R.total_cells [ (1, 5); (10, 11) ])

(* Edge cases the z-prefix sharder leans on: shard boundaries are exactly
   the level-k element ranges, and clipped query intervals end at the
   2^total border. *)

let test_cover_full_space () =
  (* The whole z range is one element: the root. *)
  match R.cover s23 ~lo:0 ~hi:63 with
  | [ e ] -> check "root" true (B.is_empty e)
  | other -> Alcotest.failf "full space: %d elements" (List.length other)

let test_cover_single_cells_at_borders () =
  (* Degenerate one-pixel intervals, including both ends of the space. *)
  List.iter
    (fun z ->
      match R.cover s23 ~lo:z ~hi:z with
      | [ e ] ->
          check_int "pixel-level element" 6 (B.length e);
          check_int "right value" z (B.to_int e)
      | other -> Alcotest.failf "cell %d: %d elements" z (List.length other))
    [ 0; 1; 31; 32; 62; 63 ]

let test_cover_touching_border () =
  (* Intervals ending at the last cell: the cover must stop exactly at
     2^total - 1 and still tile. *)
  List.iter
    (fun lo ->
      let els = R.cover s23 ~lo ~hi:63 in
      let rec walk pos = function
        | [] -> pos = 64
        | e :: rest ->
            let elo, ehi = R.of_element s23 e in
            elo = pos && walk (ehi + 1) rest
      in
      check (Printf.sprintf "[%d, 63] tiles to the border" lo) true (walk lo els))
    [ 0; 1; 31; 32; 33; 62; 63 ]

let test_shard_boundaries_are_element_ranges () =
  (* Cutting [0, 2^total - 1] at the 2^k aligned boundaries gives exactly
     the level-k elements, in z order — the sharder's partition. *)
  let total = 6 in
  for k = 0 to total do
    let width = 1 lsl (total - k) in
    List.init (1 lsl k) (fun i ->
        match R.to_element s23 ~lo:(i * width) ~hi:(((i + 1) * width) - 1) with
        | Some e -> check_int (Printf.sprintf "level %d shard %d" k i) k (B.length e)
        | None -> Alcotest.failf "level %d shard %d is not an element" k i)
    |> ignore
  done;
  (* Misaligned or non-power-of-two cuts are rejected. *)
  check "misaligned" true (R.to_element s23 ~lo:1 ~hi:2 = None);
  check "spanning a boundary" true (R.to_element s23 ~lo:31 ~hi:32 = None)

let test_overlaps_interval () =
  (* The router's fan-out test over an ascending disjoint list. *)
  let ivs = [ (2, 5); (10, 10); (20, 30) ] in
  check "inside first" true (R.overlaps_interval ivs ~lo:3 ~hi:4);
  check "touching an end" true (R.overlaps_interval ivs ~lo:0 ~hi:2);
  check "single-cell interval" true (R.overlaps_interval ivs ~lo:10 ~hi:10);
  check "spanning a gap" true (R.overlaps_interval ivs ~lo:6 ~hi:12);
  check "in a gap" false (R.overlaps_interval ivs ~lo:6 ~hi:9);
  check "before everything" false (R.overlaps_interval ivs ~lo:0 ~hi:1);
  check "past everything" false (R.overlaps_interval ivs ~lo:31 ~hi:99);
  check "empty list" false (R.overlaps_interval [] ~lo:0 ~hi:63);
  check "lo > hi rejected" true
    (try
       ignore (R.overlaps_interval ivs ~lo:5 ~hi:4);
       false
     with Invalid_argument _ -> true);
  (* cover_overlaps agrees, through a real cover. *)
  let els = R.cover s23 ~lo:9 ~hi:22 in
  check "cover overlaps its own range" true (R.cover_overlaps s23 els ~lo:20 ~hi:40);
  check "cover misses a disjoint shard" false (R.cover_overlaps s23 els ~lo:23 ~hi:63)

(* Properties *)

let s6 = Z.Space.make ~dims:2 ~depth:6

let gen_interval =
  QCheck2.Gen.(
    map
      (fun (a, b) -> (min a b, max a b))
      (pair (int_bound 4095) (int_bound 4095)))

let prop_cover_exact =
  QCheck2.Test.make ~name:"cover = interval, disjoint, sorted, aligned" ~count:300
    gen_interval (fun (lo, hi) ->
      let els = R.cover s6 ~lo ~hi in
      (* Ranges are consecutive and exactly tile [lo, hi]. *)
      let rec walk pos = function
        | [] -> pos = hi + 1
        | e :: rest ->
            let elo, ehi = R.of_element s6 e in
            elo = pos && ehi <= hi && walk (ehi + 1) rest
      in
      walk lo els)

let prop_cover_minimal =
  QCheck2.Test.make ~name:"cover is canonical (no sibling pairs)" ~count:300
    gen_interval (fun (lo, hi) ->
      let els = R.cover s6 ~lo ~hi in
      (* No two adjacent output elements may be siblings (they would merge
         into the parent). *)
      let rec ok = function
        | a :: b :: rest ->
            let merged =
              match (Z.Element.parent a, Z.Element.parent b) with
              | Some pa, Some pb -> B.equal pa pb && B.get a (B.length a - 1) = false
              | _ -> false
            in
            (not merged) && ok (b :: rest)
        | _ -> true
      in
      ok els)

let prop_roundtrip_intervals =
  QCheck2.Test.make ~name:"intervals -> elements -> intervals" ~count:300
    QCheck2.Gen.(list_size (int_bound 5) gen_interval)
    (fun intervals ->
      (* Normalize to disjoint, sorted, non-adjacent. *)
      let sorted = List.sort_uniq compare intervals in
      let rec normalize = function
        | (a1, b1) :: (a2, b2) :: rest ->
            if a2 <= b1 + 1 then normalize ((a1, max b1 b2) :: rest)
            else (a1, b1) :: normalize ((a2, b2) :: rest)
        | l -> l
      in
      let normalized = normalize sorted in
      let els = R.intervals_to_elements s6 normalized in
      R.elements_to_intervals s6 els = normalized)

let prop_overlaps_naive =
  QCheck2.Test.make ~name:"overlaps_interval = naive scan" ~count:500
    QCheck2.Gen.(pair (list_size (int_bound 5) gen_interval) gen_interval)
    (fun (intervals, (lo, hi)) ->
      let sorted = List.sort_uniq compare intervals in
      let rec normalize = function
        | (a1, b1) :: (a2, b2) :: rest ->
            if a2 <= b1 + 1 then normalize ((a1, max b1 b2) :: rest)
            else (a1, b1) :: normalize ((a2, b2) :: rest)
        | l -> l
      in
      let normalized = normalize sorted in
      let naive = List.exists (fun (a, b) -> a <= hi && lo <= b) normalized in
      R.overlaps_interval normalized ~lo ~hi = naive)

let () =
  Alcotest.run "zrange"
    [
      ( "unit",
        [
          Alcotest.test_case "usable" `Quick test_usable;
          Alcotest.test_case "of_element" `Quick test_of_element;
          Alcotest.test_case "to_element" `Quick test_to_element;
          Alcotest.test_case "cover single element" `Quick test_cover_single_element;
          Alcotest.test_case "cover unaligned" `Quick test_cover_unaligned;
          Alcotest.test_case "cover_count exhaustive" `Quick test_cover_count;
          Alcotest.test_case "elements_to_intervals" `Quick test_elements_to_intervals;
          Alcotest.test_case "total_cells" `Quick test_total_cells;
          Alcotest.test_case "cover full space" `Quick test_cover_full_space;
          Alcotest.test_case "single cells at borders" `Quick
            test_cover_single_cells_at_borders;
          Alcotest.test_case "intervals touching the border" `Quick
            test_cover_touching_border;
          Alcotest.test_case "shard boundaries are element ranges" `Quick
            test_shard_boundaries_are_element_ranges;
          Alcotest.test_case "overlaps_interval" `Quick test_overlaps_interval;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_cover_exact;
            prop_cover_minimal;
            prop_roundtrip_intervals;
            prop_overlaps_naive;
          ] );
    ]
