(* Differential suite for the packed kernels: the fast paths of Zmerge,
   Range_search and Spatial_join must reproduce the bitstring reference
   implementations bit for bit (same rows, same order — and for range
   search, the same counters) on the seeded workloads, and the fallback
   beyond Zpacked.max_bits must stay correct. *)

module Z = Sqp_zorder
module B = Z.Bitstring
module P = Z.Zpacked
module W = Sqp_workload
module RS = Sqp_core.Range_search
module Zseq = Sqp_core.Zseq
module Zmerge = Sqp_core.Zmerge
module SJ = Sqp_relalg.Spatial_join

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let wk = lazy (W.Seeded.standard ())

(* --- Zseq unit behaviour ------------------------------------------- *)

let pack_exn b =
  match P.of_bitstring b with Some p -> p | None -> assert false

let test_zseq_sorts_stably () =
  let comparisons = ref 0 in
  let items =
    [
      (B.of_string "10", "a");
      (B.of_string "01", "b");
      (B.of_string "10", "c");
      (B.of_string "0", "d");
      (B.of_string "10", "e");
    ]
  in
  match Zseq.of_list ~comparisons items with
  | None -> Alcotest.fail "short strings must pack"
  | Some t ->
      Alcotest.(check (list string))
        "z order, ties in input order" [ "d"; "b"; "a"; "c"; "e" ]
        (List.init (Zseq.length t) (Zseq.payload t));
      check "counted sort work" true (!comparisons > 0)

let test_zseq_of_sorted_validates () =
  let zs = Array.map (fun s -> pack_exn (B.of_string s)) [| "1"; "0" |] in
  match Zseq.of_sorted zs [| 0; 1 |] with
  | _ -> Alcotest.fail "descending input should raise"
  | exception Invalid_argument _ -> (
      match Zseq.of_sorted zs [| 0 |] with
      | _ -> Alcotest.fail "length mismatch should raise"
      | exception Invalid_argument _ -> ())

let test_zseq_lower_bound () =
  let comparisons = ref 0 in
  let strings = [ "00"; "01"; "01"; "10"; "11" ] in
  let t =
    match Zseq.of_list ~comparisons (List.map (fun s -> (B.of_string s, s)) strings) with
    | Some t -> t
    | None -> assert false
  in
  let linear key =
    let rec go i = if i >= Zseq.length t then i
      else if P.compare (Zseq.z t i) key >= 0 then i
      else go (i + 1)
    in
    go 0
  in
  List.iter
    (fun s ->
      let key = pack_exn (B.of_string s) in
      check_int ("lower_bound " ^ s) (linear key)
        (Zseq.lower_bound ~comparisons t key))
    [ ""; "0"; "00"; "01"; "011"; "10"; "11"; "111" ]

let test_zseq_of_list_refuses_long () =
  let comparisons = ref 0 in
  let long = B.init (P.max_bits + 1) (fun i -> i mod 2 = 0) in
  check "long element -> None" true
    (Zseq.of_list ~comparisons [ (B.empty, 0); (long, 1) ] = None)

(* --- Zmerge: packed vs reference vs naive --------------------------- *)

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
  (* 130-bit elements exceed Zpacked.max_bits: pairs must silently use
     the reference sweep and still match the naive oracle. *)
  let base = B.init 128 (fun i -> i mod 3 = 0) in
  let extend bits = B.concat base (B.of_string bits) in
  let left = [ (base, "l0"); (extend "01", "l1"); (B.empty, "l2") ] in
  let right = [ (extend "0", "r0"); (extend "11", "r1"); (base, "r2") ] in
  let fast, _ = Zmerge.pairs left right in
  let ref_, _ = Zmerge.pairs_reference left right in
  let naive, _ = Zmerge.pairs_naive left right in
  check "fallback = reference" true (fast = ref_);
  check "fallback = oracle (multiset)" true (canon fast = canon naive)

let test_zmerge_empty_sides () =
  let some = [ (B.of_string "01", 1) ] in
  List.iter
    (fun (l, r) ->
      let fast, fs = Zmerge.pairs l r in
      let ref_, rs = Zmerge.pairs_reference l r in
      check "empty-side equal" true (fast = ref_);
      check_int "empty-side pairs" fs.Zmerge.pairs rs.Zmerge.pairs)
    [ ([], []); (some, []); ([], some) ]

(* --- Range search: packed vs reference, rows AND counters ----------- *)

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
  (* 3 x 43 = 129 bits: prepare must fall back (packed path impossible)
     and the searches must still agree with a brute-force filter. *)
  let space = Z.Space.make ~dims:3 ~depth:43 in
  check "space does not fit packed" false (P.fits_space space);
  let rng = W.Rng.create ~seed:2024 in
  let pts =
    Array.init 200 (fun i ->
        (Array.init 3 (fun _ -> W.Rng.int rng 64), i))
  in
  let prep = RS.prepare space pts in
  let lo = [| 8; 8; 8 |] and hi = [| 40; 40; 40 |] in
  let box = Sqp_geom.Box.make ~lo ~hi in
  let expected =
    List.sort Stdlib.compare
      (Array.to_list pts
      |> List.filter_map (fun (p, v) ->
             let inside =
               p.(0) >= 8 && p.(0) <= 40 && p.(1) >= 8 && p.(1) <= 40
               && p.(2) >= 8 && p.(2) <= 40
             in
             if inside then Some (p, v) else None))
  in
  let rows_s, _ = RS.search_skip prep box in
  let rows_p, _ = RS.search_plain prep box in
  check "skip = brute force" true (List.sort Stdlib.compare rows_s = expected);
  check "plain = skip" true (rows_p = rows_s)

(* --- Spatial join: packed merge vs reference merge ------------------ *)

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
          Alcotest.test_case "of_sorted validates" `Quick test_zseq_of_sorted_validates;
          Alcotest.test_case "lower_bound" `Quick test_zseq_lower_bound;
          Alcotest.test_case "refuses long z" `Quick test_zseq_of_list_refuses_long;
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
