(* Differential suite for the int-key kernels: the fast paths of Zmerge,
   Range_search and Spatial_join must reproduce the bitstring reference
   implementations bit for bit (same rows, same order — and for range
   search, the same counters) on the seeded workloads, and the one
   fallback rule — a z value over Zpacked.word_bits = 63 bits runs the
   reference — must hold at its edge. *)

module Z = Sqp_zorder
module B = Z.Bitstring
module K = Z.Zkernel
module W = Sqp_workload
module RS = Sqp_core.Range_search
module Zmerge = Sqp_core.Zmerge
module SJ = Sqp_relalg.Spatial_join

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let wk = lazy (W.Seeded.standard ())

(* --- Z-sorted sequences: the kernel's sort and lower bound ---------- *)

let test_zseq_sorts_stably () =
  let comparisons = ref 0 in
  let items =
    [| ("10", "a"); ("01", "b"); ("10", "c"); ("0", "d"); ("10", "e") |]
  in
  let z i = B.of_string (fst items.(i)) in
  match K.sort_keyed ~comparisons z (Array.length items) with
  | None -> Alcotest.fail "short strings must sort on int keys"
  | Some (perm, _) ->
      Alcotest.(check (list string))
        "z order, ties in input order" [ "d"; "b"; "a"; "c"; "e" ]
        (Array.to_list (Array.map (fun i -> snd items.(i)) perm));
      check "counted sort work" true (!comparisons > 0)

(* The skip merge's first jump lands on the lower bound of the range's
   low key, so a range reaching the top of the space reports exactly the
   points from that bound on. *)
let test_zseq_lower_bound () =
  let check_bounds ~total ks elements =
    let top = snd (K.element_keys ~total B.empty) in
    let linear k =
      let rec go i = if i >= Array.length ks || ks.(i) >= k then i else go (i + 1) in
      go 0
    in
    List.iter
      (fun e ->
        let klo, _ = K.element_keys ~total e in
        let hits = ref [] in
        let c =
          K.range_skip_keys ks { K.klo = [| klo |]; khi = [| top |] } (fun i ->
              hits := i :: !hits)
        in
        let lb = linear klo in
        Alcotest.(check (list int))
          ("lower_bound " ^ B.to_string e)
          (List.init (Array.length ks - lb) (fun i -> lb + i))
          (List.rev !hits);
        check_int "one jump" (if Array.length ks = 0 then 0 else 1) c.K.point_jumps)
      elements
  in
  let strings = [| "00"; "01"; "01"; "10"; "11" |] in
  check_bounds ~total:2
    (Array.map (fun s -> K.word_key (B.of_string s)) strings)
    (List.map B.of_string [ ""; "0"; "00"; "01"; "1"; "10"; "11" ]);
  check_bounds ~total:2 [||] [ B.empty ];
  (* seeded: duplicate-heavy sorted keys in a 12-bit space *)
  let rng = W.Rng.create ~seed:4711 in
  let random_bits len = B.init len (fun _ -> W.Rng.bool rng) in
  let pool = Array.init 60 (fun _ -> K.word_key (random_bits 12)) in
  let ks = Array.init 200 (fun _ -> pool.(W.Rng.int rng 60)) in
  Array.sort compare ks;
  check_bounds ~total:12 ks (List.init 300 (fun _ -> random_bits (W.Rng.int rng 13)))

let test_zseq_refuses_long () =
  let comparisons = ref 0 in
  let bits n = B.init n (fun i -> i mod 2 = 0) in
  let long = [| B.empty; bits (Z.Zpacked.word_bits + 1) |] in
  check "long element -> None" true
    (K.sort_keyed ~comparisons (Array.get long) 2 = None);
  check "one word sorts" true
    (K.sort_keyed ~comparisons (Array.get [| B.empty; bits Z.Zpacked.word_bits |]) 2
    <> None);
  let emitted = ref 0 in
  check "join refuses" true
    (K.pairs ~comparisons (Array.get long) 2 (Array.get [| B.empty |]) 1
       (fun _ _ -> incr emitted)
    = None);
  check_int "nothing emitted" 0 !emitted

(* --- Zmerge: kernel vs reference vs naive --------------------------- *)

let canon pairs = List.sort Stdlib.compare pairs

let test_zmerge_differential () =
  let left, right = W.Seeded.join_elements (Lazy.force wk) in
  let fast, fs = Zmerge.pairs left right in
  let ref_, rs = Zmerge.pairs_reference left right in
  check "identical pairs in identical order" true (fast = ref_);
  check_int "same pair count" fs.Zmerge.pairs rs.Zmerge.pairs;
  check_int "same item count" fs.items rs.items;
  let naive, ns = Zmerge.pairs_naive left right in
  check "multiset equals the oracle" true (canon fast = canon naive);
  check_int "naive pair count" fs.Zmerge.pairs ns.Zmerge.pairs

let test_zmerge_fallback_long_elements () =
  (* A 64-bit and a 130-bit longest element both exceed one word: pairs
     must silently use the reference sweep — its pairs and counters —
     and still match the naive oracle. *)
  List.iter
    (fun base_len ->
      let base = B.init base_len (fun i -> i mod 3 = 0) in
      let extend bits = B.concat base (B.of_string bits) in
      let left = [ (base, "l0"); (extend "01", "l1"); (B.empty, "l2") ] in
      let right = [ (extend "0", "r0"); (extend "11", "r1"); (base, "r2") ] in
      let fast, fs = Zmerge.pairs left right in
      let ref_, rs = Zmerge.pairs_reference left right in
      let naive, _ = Zmerge.pairs_naive left right in
      check "fallback = reference" true (fast = ref_);
      check "fallback stats = reference" true (fs = rs);
      check "fallback = oracle (multiset)" true (canon fast = canon naive))
    [ 62; 128 ]

let test_zmerge_empty_sides () =
  let some = [ (B.of_string "01", 1) ] in
  List.iter
    (fun (l, r) ->
      let fast, fs = Zmerge.pairs l r in
      let ref_, rs = Zmerge.pairs_reference l r in
      check "empty-side equal" true (fast = ref_);
      check_int "empty-side pairs" fs.Zmerge.pairs rs.Zmerge.pairs)
    [ ([], []); (some, []); ([], some) ]

(* --- Range search: kernel vs reference, rows AND counters ----------- *)

let counters_equal (a : RS.counters) (b : RS.counters) =
  a.point_steps = b.point_steps
  && a.element_steps = b.element_steps
  && a.point_jumps = b.point_jumps
  && a.element_jumps = b.element_jumps
  && a.comparisons = b.comparisons

let test_range_search_differential () =
  let wk = Lazy.force wk in
  let prep = RS.prepare wk.W.Seeded.space (W.Seeded.tagged_points wk) in
  let boxes = Array.to_list (Array.sub wk.W.Seeded.query_boxes 0 120) in
  List.iteri
    (fun qi box ->
      let rows_p, cp = RS.search_plain prep box in
      let rows_pr, cpr = RS.search_plain_reference prep box in
      if rows_p <> rows_pr then Alcotest.failf "plain rows differ on box %d" qi;
      if not (counters_equal cp cpr) then
        Alcotest.failf "plain counters differ on box %d" qi;
      let rows_s, cs = RS.search_skip prep box in
      let rows_sr, csr = RS.search_skip_reference prep box in
      if rows_s <> rows_sr then Alcotest.failf "skip rows differ on box %d" qi;
      if not (counters_equal cs csr) then
        Alcotest.failf "skip counters differ on box %d" qi;
      if rows_p <> rows_s then Alcotest.failf "plain <> skip on box %d" qi)
    (wk.W.Seeded.query :: boxes)

let test_range_search_oversized_space () =
  (* The fallback rule at its edge: 63 bits (3 x 21) runs the int-key
     kernel; 64 (2 x 32), 126 (3 x 42) and 129 (3 x 43) bits run the
     bitstring reference.  Either way rows and all five counters equal
     the reference's, and rows equal a brute-force filter. *)
  List.iter
    (fun (dims, depth) ->
      let space = Z.Space.make ~dims ~depth in
      let rng = W.Rng.create ~seed:2024 in
      let pts =
        Array.init 200 (fun i ->
            (Array.init dims (fun _ -> W.Rng.int rng 64), i))
      in
      let prep = RS.prepare space pts in
      let box =
        Sqp_geom.Box.make ~lo:(Array.make dims 8) ~hi:(Array.make dims 40)
      in
      let expected =
        List.sort Stdlib.compare
          (Array.to_list pts
          |> List.filter (fun (p, _) -> Array.for_all (fun c -> c >= 8 && c <= 40) p))
      in
      let label = Printf.sprintf "%d bits: " (Z.Space.total_bits space) in
      List.iter
        (fun (name, search, reference) ->
          let rows, c = search prep box and rows_r, cr = reference prep box in
          check (label ^ name ^ " rows = reference") true (rows = rows_r);
          check (label ^ name ^ " counters = reference") true (counters_equal c cr);
          check (label ^ name ^ " = brute force") true
            (List.sort Stdlib.compare rows = expected))
        [
          ("plain", RS.search_plain, RS.search_plain_reference);
          ("skip", RS.search_skip, RS.search_skip_reference);
        ])
    [ (3, 21); (2, 32); (3, 42); (3, 43) ]

(* --- Spatial join: kernel merge vs reference merge ------------------ *)

let test_spatial_join_differential () =
  let wk = Lazy.force wk in
  let module R = Sqp_relalg in
  let module Rel = Sqp_relalg.Relation in
  let schema_of name z =
    R.Schema.make [ (name, R.Value.TInt); (z, R.Value.TZval) ]
  in
  let rel_of name z items =
    Rel.make ~name (schema_of name z)
      (List.map (fun (e, id) -> [| R.Value.Int id; R.Value.Zval e |]) items)
  in
  let left, right = W.Seeded.join_elements wk in
  let r = rel_of "rid" "zr" left and s = rel_of "sid" "zs" right in
  let joined, st = SJ.merge r ~zr:"zr" s ~zs:"zs" in
  let joined_ref, st_ref = SJ.merge_reference r ~zr:"zr" s ~zs:"zs" in
  check "identical tuples in identical order" true
    (Rel.tuples joined = Rel.tuples joined_ref);
  check_int "pairs" st.SJ.pairs st_ref.SJ.pairs;
  check_int "sorted_items" st.sorted_items st_ref.sorted_items;
  check_int "max_stack" st.max_stack st_ref.max_stack;
  let _, st_nested = SJ.nested_loop r ~zr:"zr" s ~zs:"zs" in
  check_int "pairs vs nested oracle" st.SJ.pairs st_nested.SJ.pairs

let () =
  Alcotest.run "zseq"
    [
      ( "zseq",
        [
          Alcotest.test_case "stable sort" `Quick test_zseq_sorts_stably;
          Alcotest.test_case "lower_bound" `Quick test_zseq_lower_bound;
          Alcotest.test_case "refuses long z" `Quick test_zseq_refuses_long;
        ] );
      ( "zmerge",
        [
          Alcotest.test_case "packed = reference = oracle" `Quick test_zmerge_differential;
          Alcotest.test_case "fallback beyond 126 bits" `Quick test_zmerge_fallback_long_elements;
          Alcotest.test_case "empty sides" `Quick test_zmerge_empty_sides;
        ] );
      ( "range search",
        [
          Alcotest.test_case "packed = reference (rows + counters)" `Quick
            test_range_search_differential;
          Alcotest.test_case "129-bit space falls back" `Quick
            test_range_search_oversized_space;
        ] );
      ( "spatial join",
        [
          Alcotest.test_case "packed merge = reference merge" `Quick
            test_spatial_join_differential;
        ] );
    ]
