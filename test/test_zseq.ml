(* Differential suite for the int-key kernels: the kernels of Zmerge,
   Range_search and Spatial_join must reproduce the bitstring reference
   implementations bit for bit (same rows, same order — and for range
   search, the same counters) on the seeded workloads and on the widest
   spaces Space.make accepts. *)

module Z = Sqp_zorder
module B = Z.Bitstring
module K = Z.Zkernel
module W = Sqp_workload
module Rng = W.Rng
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
  let perm, _ = K.sort_keyed ~comparisons z (Array.length items) in
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

let test_range_search_widest_spaces () =
  (* The widest spaces: 61 bits (1 x 61) and 60 (3 x 20, 2 x 30).  Points
     cluster at both ends of every axis, so keys use the top z bit (the
     key's sign bit) and the bottom one.  Rows and all five counters
     equal the reference's, and rows equal a brute-force filter. *)
  List.iter
    (fun (dims, depth) ->
      let space = Z.Space.make ~dims ~depth in
      let top = Z.Space.side space - 1 in
      let rng = W.Rng.create ~seed:2024 in
      let coord () =
        let c = W.Rng.int rng 64 in
        if W.Rng.bool rng then c else top - c
      in
      let pts = Array.init 200 (fun i -> (Array.init dims (fun _ -> coord ()), i)) in
      let prep = RS.prepare space pts in
      List.iter
        (fun (lo, hi) ->
          let box = Sqp_geom.Box.make ~lo:(Array.make dims lo) ~hi:(Array.make dims hi) in
          let expected =
            List.sort Stdlib.compare
              (Array.to_list pts
              |> List.filter (fun (p, _) -> Array.for_all (fun c -> c >= lo && c <= hi) p))
          in
          let label = Printf.sprintf "%d bits, [%d, %d]: " (Z.Space.total_bits space) lo hi in
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
        [ (8, 40); (top - 40, top - 8); (0, top) ])
    [ (1, 61); (3, 20); (2, 30) ]

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

(* --- The kernel's int keys against the bitstring reference --------- *)

let random_bits rng len = B.init len (fun _ -> Rng.bool rng)

(* A scan range's int keys are the keys of the element padded with
   zeros and with ones to the space's length. *)
let test_pad_to () =
  let rng = Rng.create ~seed:31337 in
  for _ = 1 to 500 do
    let a = random_bits rng (Rng.int rng 62) in
    let n = Rng.int_in rng (B.length a) 61 in
    check "pad_to agrees" true
      (K.element_keys ~total:n a
      = (K.word_key (B.pad_to a n false), K.word_key (B.pad_to a n true)))
  done;
  (match K.element_keys ~total:1 (B.of_string "01") with
  | _ -> Alcotest.fail "pad_to shorter should raise"
  | exception Invalid_argument _ -> ());
  match K.element_keys ~total:64 B.empty with
  | _ -> Alcotest.fail "pad_to beyond 63 bits should raise"
  | exception Invalid_argument _ -> ()

let test_order_is_total () =
  (* The kernel sort and a stable sort of the reference representation
     must produce the same sequence, ties in input order, on each of the
     kernel's three sorts: counted (under 64 values), radix, and the
     merge sort for values too long to encode with their index. *)
  let rng = Rng.create ~seed:60902 in
  List.iter
    (fun (n, maxlen) ->
      let pool = Array.init (n / 2) (fun _ -> random_bits rng (Rng.int rng (maxlen + 1))) in
      let bits = Array.init n (fun _ -> pool.(Rng.int rng (Array.length pool))) in
      let expect = Array.init n Fun.id in
      Array.stable_sort (fun i j -> B.compare bits.(i) bits.(j)) expect;
      let perm, _ = K.sort_keyed ~comparisons:(ref 0) (Array.get bits) n in
      check "same sort order" true (perm = expect))
    [ (40, 20); (500, 20); (500, 61) ]

let () =
  Alcotest.run "zseq"
    [
      ( "differential",
        [
          Alcotest.test_case "pad_to" `Quick test_pad_to;
          Alcotest.test_case "sorting agreement" `Quick test_order_is_total;
        ] );
      ( "zseq",
        [
          Alcotest.test_case "stable sort" `Quick test_zseq_sorts_stably;
          Alcotest.test_case "lower_bound" `Quick test_zseq_lower_bound;
        ] );
      ( "zmerge",
        [
          Alcotest.test_case "packed = reference = oracle" `Quick test_zmerge_differential;
          Alcotest.test_case "empty sides" `Quick test_zmerge_empty_sides;
        ] );
      ( "range search",
        [
          Alcotest.test_case "packed = reference (rows + counters)" `Quick
            test_range_search_differential;
          Alcotest.test_case "61-bit spaces = reference" `Quick
            test_range_search_widest_spaces;
        ] );
      ( "spatial join",
        [
          Alcotest.test_case "packed merge = reference merge" `Quick
            test_spatial_join_differential;
        ] );
    ]
