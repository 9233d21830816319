(* Differential fuzz: Zpacked must agree with Bitstring — the reference
   representation — on every observation the storage codec makes,
   wherever both apply (lengths up to Zpacked.max_bits), and refuse
   (None) beyond.  The int keys Zkernel reads from a value's first word
   must pad and sort exactly as the reference does. *)

module Z = Sqp_zorder
module B = Z.Bitstring
module P = Z.Zpacked
module K = Z.Zkernel
module Rng = Sqp_workload.Rng

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let pack_exn b =
  match P.of_bitstring b with
  | Some p -> p
  | None -> Alcotest.failf "of_bitstring refused %d bits" (B.length b)

let random_bits rng len = B.init len (fun _ -> Rng.bool rng)

(* Packed values compared through the reference representation. *)
let same pa pb = B.equal (P.to_bitstring pa) (P.to_bitstring pb)

(* Pairs biased toward the interesting cases: exact prefixes, one-bit
   perturbations near the end, shared long prefixes — plus independent
   strings. *)
let random_pair rng =
  let a = random_bits rng (Rng.int rng (P.max_bits + 1)) in
  let b =
    match Rng.int rng 4 with
    | 0 ->
        (* extension of a *)
        let extra = Rng.int rng (P.max_bits + 1 - B.length a) in
        B.concat a (random_bits rng extra)
    | 1 when not (B.is_empty a) ->
        (* flip one bit *)
        let i = Rng.int rng (B.length a) in
        B.set a i (not (B.get a i))
    | 2 when not (B.is_empty a) ->
        (* a prefix of a *)
        B.take a (Rng.int rng (B.length a + 1))
    | _ -> random_bits rng (Rng.int rng (P.max_bits + 1))
  in
  (a, b)

let test_agree_with_bitstring () =
  let rng = Rng.create ~seed:4242 in
  for _ = 1 to 3000 do
    let a, b = random_pair rng in
    check_int "common_prefix_len" (B.common_prefix_len a b)
      (P.common_prefix_len (pack_exn a) (pack_exn b))
  done

let test_observation_roundtrip () =
  let rng = Rng.create ~seed:77001 in
  for _ = 1 to 500 do
    let a = random_bits rng (Rng.int rng (P.max_bits + 1)) in
    let pa = pack_exn a in
    check_int "length" (B.length a) (P.length pa);
    check "to_bitstring roundtrip" true (B.equal (P.to_bitstring pa) a)
  done

(* A scan range's int keys are the keys of the element padded with
   zeros and with ones to the space's length. *)
let test_pad_to () =
  let rng = Rng.create ~seed:31337 in
  for _ = 1 to 500 do
    let a = random_bits rng (Rng.int rng (P.word_bits + 1)) in
    let n = Rng.int_in rng (B.length a) P.word_bits in
    check "pad_to agrees" true
      (K.element_keys ~total:n a
      = (K.word_key (B.pad_to a n false), K.word_key (B.pad_to a n true)))
  done;
  (match K.element_keys ~total:1 (B.of_string "01") with
  | _ -> Alcotest.fail "pad_to shorter should raise"
  | exception Invalid_argument _ -> ());
  match K.element_keys ~total:(P.word_bits + 1) B.empty with
  | _ -> Alcotest.fail "pad_to beyond word_bits should raise"
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
      match K.sort_keyed ~comparisons:(ref 0) (Array.get bits) n with
      | None -> Alcotest.fail "narrow batch refused"
      | Some (perm, _) -> check "same sort order" true (perm = expect))
    [ (40, 20); (500, 20); (500, P.word_bits) ]

let test_fallback_boundary () =
  let rng = Rng.create ~seed:555 in
  (* exactly max_bits packs... *)
  let at = random_bits rng P.max_bits in
  check "126 bits pack" true (P.of_bitstring at <> None);
  check "126-bit roundtrip" true
    (B.equal (P.to_bitstring (pack_exn at)) at);
  (* ...one more does not *)
  let over = random_bits rng (P.max_bits + 1) in
  check "127 bits refused" true (P.of_bitstring over = None)

let test_word_boundary_cases () =
  (* Hand-picked strings straddling the w0/w1 boundary at bit 63. *)
  let zeros n = B.init n (fun _ -> false) in
  let ones n = B.init n (fun _ -> true) in
  let cases =
    [
      zeros 62; zeros 63; zeros 64; ones 62; ones 63; ones 64;
      B.concat (zeros 63) (ones 1);
      B.concat (ones 63) (zeros 1);
      B.concat (zeros 62) (ones 64);
      ones 126; zeros 126; B.empty;
    ]
  in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          check_int "common_prefix_len" (B.common_prefix_len a b)
            (P.common_prefix_len (pack_exn a) (pack_exn b)))
        cases)
    cases

let test_shuffle_unshuffle () =
  let rng = Rng.create ~seed:90210 in
  let spaces =
    [
      Z.Space.make ~dims:2 ~depth:10;
      Z.Space.make ~dims:2 ~depth:31;
      Z.Space.make ~dims:3 ~depth:42; (* exactly 126 bits *)
      Z.Space.make ~dims:1 ~depth:61;
      Z.Space.make ~dims:7 ~depth:18; (* 126 bits, odd arity *)
    ]
  in
  List.iter
    (fun space ->
      check "fits" true (P.fits_space space);
      for _ = 1 to 100 do
        let coords =
          Array.init (Z.Space.dims space) (fun _ ->
              Rng.int rng (Z.Space.side space))
        in
        let p = P.shuffle space coords in
        let b = Z.Interleave.shuffle space coords in
        check "shuffle agrees" true (B.equal (P.to_bitstring p) b);
        let up = P.unshuffle space p and ub = Z.Interleave.unshuffle space b in
        check "unshuffle agrees" true (up = ub);
        check "coords roundtrip" true (Array.map fst up = coords)
      done)
    spaces;
  (* partial (element) z values unshuffle identically too *)
  let space = Z.Space.make ~dims:2 ~depth:10 in
  for _ = 1 to 200 do
    let z = random_bits rng (Rng.int rng (Z.Space.total_bits space + 1)) in
    check "partial unshuffle" true
      (P.unshuffle space (pack_exn z) = Z.Interleave.unshuffle space z)
  done

let test_fits_space () =
  check "2x10 fits" true (P.fits_space (Z.Space.make ~dims:2 ~depth:10));
  check "3x42 fits (126)" true (P.fits_space (Z.Space.make ~dims:3 ~depth:42));
  check "127 bits does not" false (P.fits_space (Z.Space.make ~dims:127 ~depth:1));
  check "2x64 does not" false (P.fits_space (Z.Space.make ~dims:2 ~depth:64));
  match P.shuffle (Z.Space.make ~dims:2 ~depth:64) [| 0; 0 |] with
  | _ -> Alcotest.fail "shuffle on an oversized space should raise"
  | exception Invalid_argument _ -> ()

(* The Zrun building blocks: take / suffix_bytes / append_bytes must
   compose back to the identity at every split point, and the stored
   suffix must match a reference bit-by-bit extraction. *)
let test_surgery_roundtrip () =
  let rng = Rng.create ~seed:880 in
  for _ = 1 to 800 do
    let a = random_bits rng (Rng.int rng (P.max_bits + 1)) in
    let pa = pack_exn a in
    let s = Rng.int rng (B.length a + 1) in
    check "take agrees" true
      (B.equal (P.to_bitstring (P.take pa s)) (B.take a s));
    let tail = P.length pa - s in
    let suffix = P.suffix_bytes pa ~pos:s in
    check_int "suffix byte count" ((tail + 7) / 8) (String.length suffix);
    (* bits pack MSB-first; padding past the last bit is zero *)
    String.iteri
      (fun i c ->
        let c = Char.code c in
        for bit = 0 to 7 do
          let idx = s + (8 * i) + bit in
          let expect = idx < B.length a && B.get a idx in
          check "suffix bit" expect (c land (0x80 lsr bit) <> 0)
        done)
      suffix;
    check "split/rejoin identity" true
      (same pa (P.append_bytes (P.take pa s) ~bytes:suffix ~pos:0 ~nbits:tail));
    (* reading the suffix out of a larger buffer, as Zrun does *)
    let embedded = "\xAA\xBB" ^ suffix ^ "\xCC" in
    check "embedded rejoin" true
      (same pa (P.append_bytes (P.take pa s) ~bytes:embedded ~pos:2 ~nbits:tail))
  done;
  (* grafting a suffix onto a different prefix keeps exactly those bits *)
  let rng = Rng.create ~seed:881 in
  for _ = 1 to 300 do
    let a = pack_exn (random_bits rng (Rng.int rng (P.max_bits + 1))) in
    let s = Rng.int rng (P.length a + 1) in
    let prefix_len = Rng.int rng (P.max_bits - (P.length a - s) + 1) in
    let prefix = pack_exn (random_bits rng prefix_len) in
    let tail = P.length a - s in
    let grafted =
      P.append_bytes prefix ~bytes:(P.suffix_bytes a ~pos:s) ~pos:0 ~nbits:tail
    in
    check_int "grafted length" (prefix_len + tail) (P.length grafted);
    check "grafted prefix" true (same prefix (P.take grafted prefix_len));
    let ab = P.to_bitstring a and gb = P.to_bitstring grafted in
    for i = 0 to tail - 1 do
      check "grafted suffix bit" (B.get ab (s + i)) (B.get gb (prefix_len + i))
    done
  done

let test_surgery_guards () =
  let p = pack_exn (B.of_string "10110") in
  (match P.take p 6 with
  | _ -> Alcotest.fail "take beyond length should raise"
  | exception Invalid_argument _ -> ());
  (match P.take p (-1) with
  | _ -> Alcotest.fail "negative take should raise"
  | exception Invalid_argument _ -> ());
  (match P.suffix_bytes p ~pos:6 with
  | _ -> Alcotest.fail "suffix_bytes beyond length should raise"
  | exception Invalid_argument _ -> ());
  (match P.suffix_bytes p ~pos:(-1) with
  | _ -> Alcotest.fail "negative suffix_bytes pos should raise"
  | exception Invalid_argument _ -> ());
  let full = pack_exn (B.init P.max_bits (fun _ -> true)) in
  (match P.append_bytes full ~bytes:"\xff" ~pos:0 ~nbits:1 with
  | _ -> Alcotest.fail "append past max_bits should raise"
  | exception Invalid_argument _ -> ());
  (match P.append_bytes P.empty ~bytes:"\xff" ~pos:0 ~nbits:9 with
  | _ -> Alcotest.fail "append past the buffer should raise"
  | exception Invalid_argument _ -> ());
  (* boundary cases that must NOT raise *)
  check "empty suffix of empty" true (P.suffix_bytes P.empty ~pos:0 = "");
  check "append nothing" true
    (same p (P.append_bytes p ~bytes:"" ~pos:0 ~nbits:0));
  check_int "append up to max_bits" P.max_bits
    (P.length
       (P.append_bytes (P.take full 120)
          ~bytes:(P.suffix_bytes full ~pos:120) ~pos:0 ~nbits:6))

let () =
  Alcotest.run "zpacked"
    [
      ( "differential",
        [
          Alcotest.test_case "agrees with Bitstring" `Quick test_agree_with_bitstring;
          Alcotest.test_case "get/length/to_bitstring" `Quick test_observation_roundtrip;
          Alcotest.test_case "pad_to" `Quick test_pad_to;
          Alcotest.test_case "sorting agreement" `Quick test_order_is_total;
        ] );
      ( "boundaries",
        [
          Alcotest.test_case ">126-bit fallback" `Quick test_fallback_boundary;
          Alcotest.test_case "word straddling" `Quick test_word_boundary_cases;
          Alcotest.test_case "fits_space" `Quick test_fits_space;
        ] );
      ( "interleaving",
        [
          Alcotest.test_case "shuffle/unshuffle" `Quick test_shuffle_unshuffle;
        ] );
      ( "bit surgery",
        [
          Alcotest.test_case "split/rejoin roundtrip" `Quick
            test_surgery_roundtrip;
          Alcotest.test_case "guards" `Quick test_surgery_guards;
        ] );
    ]
