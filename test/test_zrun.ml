(* Unit and property tests for the front-coded run codec (Zrun): exact
   roundtrips, the seeded-workload compression claim, the serialized
   bytes pinned against digests of the two-word codec it replaced, the
   shared-prefix and suffix-byte arithmetic against the Bitstring
   reference at every width up to Space.max_total_bits, and corruption
   detection. *)

module Z = Sqp_zorder
module B = Z.Bitstring
module Run = Z.Zrun
module W = Sqp_workload

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* Sorted full-resolution z values of [n] seeded points, as integers. *)
let seeded_zs n =
  let space = Z.Space.make ~dims:2 ~depth:10 in
  let rng = W.Rng.create ~seed:77 in
  let pts = W.Datagen.uniform rng ~side:1024 ~n ~dims:2 in
  let zs = Array.map (Z.Interleave.rank space) pts in
  Array.sort compare zs;
  (space, zs)

(* [n] sorted z values of random points in a [dims] x [depth] space;
   coordinates wider than 30 bits are drawn in two halves. *)
let wide_zs ~dims ~depth ~n =
  let space = Z.Space.make ~dims ~depth in
  let rng = W.Rng.create ~seed:((dims * 100) + depth) in
  let coord () =
    if depth <= 30 then W.Rng.int rng (1 lsl depth)
    else (W.Rng.int rng (1 lsl (depth - 30)) lsl 30) lor W.Rng.int rng (1 lsl 30)
  in
  let zs =
    Array.init n (fun _ -> Z.Interleave.rank space (Array.init dims (fun _ -> coord ())))
  in
  Array.sort compare zs;
  zs

let digest run = Digest.to_hex (Digest.string (Run.to_string run))

let test_roundtrip_fixed () =
  (* 5000 points — the standard workload's density, where neighbors
     share enough prefix bits for byte-granular front coding to win. *)
  let space, zs = seeded_zs 5000 in
  let run = Run.encode ~bits:(Z.Space.total_bits space) zs in
  check_int "count" 5000 (Run.count run);
  check "decode = input" true (Run.decode run = zs);
  check "validate" true (Run.validate run = Ok ());
  (* The compression claim: front-coded well under 3 raw bytes a value. *)
  check "compresses" true (Run.byte_length run < 5000 * 3)

(* The serialized bytes of runs recorded with the two-word packed codec
   this one replaced: the format is unchanged, byte for byte. *)
let test_golden_bytes () =
  let _, zs = seeded_zs 5000 in
  let run = Run.encode ~bits:20 zs in
  check_int "seeded 5000 @ 20 bits: size" 13655 (Run.byte_length run);
  Alcotest.(check string)
    "seeded 5000 @ 20 bits" "24a1cf29be456aff76f1bc8e86be419b" (digest run);
  List.iter
    (fun (dims, depth, expect) ->
      let zs = wide_zs ~dims ~depth ~n:2000 in
      let run = Run.encode ~bits:(dims * depth) zs in
      Alcotest.(check string) (Printf.sprintf "%dx%d" dims depth) expect (digest run);
      check "wide decode = input" true (Run.decode run = zs))
    [
      (1, 61, "62ff3eec0837f23d25a042ab8327bc0e");
      (3, 20, "e28b6435e99bbecc6195e22ddb000541");
      (2, 30, "de7550400bebc0b58ca14e39493c3a4e");
    ]

let test_empty_and_singleton () =
  let empty = Run.encode ~bits:20 [||] in
  check_int "empty count" 0 (Run.count empty);
  check "empty decode" true (Run.decode empty = [||]);
  check "empty validate" true (Run.validate empty = Ok ());
  let one = Run.encode ~bits:4 [| 0b1011 |] in
  check_int "singleton count" 1 (Run.count one);
  check "singleton value" true (Run.decode one = [| 0b1011 |]);
  let zero_width = Run.encode ~bits:0 [| 0; 0; 0 |] in
  check "zero-width values" true (Run.decode zero_width = [| 0; 0; 0 |])

let test_string_roundtrip_with_offset () =
  let _, zs = seeded_zs 200 in
  let run = Run.encode ~bits:20 zs in
  let s = "PREFIX" ^ Run.to_string run ^ "SUFFIX" in
  let back = Run.of_string ~pos:6 ~len:(Run.byte_length run) s in
  check "embedded parse" true (Run.decode run = Run.decode back);
  check "embedded validate" true (Run.validate back = Ok ())

(* {1 The int arithmetic against the Bitstring reference} *)

let bits_of ~bits v = B.of_int v ~width:bits

let random_value rng bits =
  if bits = 0 then 0
  else if bits <= 30 then W.Rng.int rng (1 lsl bits)
  else (W.Rng.int rng (1 lsl (bits - 30)) lsl 30) lor W.Rng.int rng (1 lsl 30)

(* Pairs biased toward the interesting cases: equal values, one-bit
   flips and long shared prefixes, plus independent values. *)
let random_pair rng =
  let bits = W.Rng.int rng (Z.Space.max_total_bits + 1) in
  let a = random_value rng bits in
  let b =
    match W.Rng.int rng 4 with
    | 0 -> a
    | 1 when bits > 0 -> a lxor (1 lsl W.Rng.int rng bits)
    | 2 when bits > 0 ->
        let keep = W.Rng.int rng (bits + 1) in
        let low = bits - keep in
        ((a lsr low) lsl low) lor random_value rng low
    | _ -> random_value rng bits
  in
  (bits, a, b)

(* A delta entry's cost is a shared-prefix byte plus the suffix, with the
   shared prefix Bitstring's [common_prefix_len]; a restart entry costs
   its offset slot plus the whole key. *)
let test_agree_with_bitstring () =
  let rng = W.Rng.create ~seed:4242 in
  for _ = 1 to 3000 do
    let bits, a, b = random_pair rng in
    let shared = B.common_prefix_len (bits_of ~bits a) (bits_of ~bits b) in
    check_int "delta entry bytes" (1 + ((bits - shared + 7) / 8))
      (Run.entry_bytes ~bits ~index:1 ~prev:a b);
    check_int "restart entry bytes" (2 + ((bits + 7) / 8))
      (Run.entry_bytes ~bits ~index:16 ~prev:a b);
    check "pair roundtrip" true (Run.decode (Run.encode ~bits [| a; b |]) = [| a; b |])
  done

(* The bytes a delta entry stores, from the reference: the shared-prefix
   length, then the value's bits from there on packed MSB-first with
   zero padding. *)
let reference_delta ~bits a b =
  let ba = bits_of ~bits a and bb = bits_of ~bits b in
  let shared = B.common_prefix_len ba bb in
  let nbits = bits - shared in
  let out = Bytes.make ((nbits + 7) / 8) '\000' in
  for i = 0 to nbits - 1 do
    if B.get bb (shared + i) then
      Bytes.set_uint8 out (i / 8) (Bytes.get_uint8 out (i / 8) lor (0x80 lsr (i mod 8)))
  done;
  String.make 1 (Char.chr shared) ^ Bytes.to_string out

(* A two-value run is [header | table | a whole | b's delta entry]. *)
let delta_bytes run ~bits =
  let s = Run.to_string run in
  let off = Run.header_bytes + 2 + ((bits + 7) / 8) in
  String.sub s off (String.length s - off)

let check_split_rejoin ~bits a b =
  let run = Run.encode ~bits [| a; b |] in
  Alcotest.(check string)
    (Printf.sprintf "delta bytes, %d bits" bits)
    (reference_delta ~bits a b) (delta_bytes run ~bits);
  check "rejoined" true (Run.decode run = [| a; b |])

let test_surgery_roundtrip () =
  let rng = W.Rng.create ~seed:880 in
  for _ = 1 to 800 do
    let bits, a, b = random_pair rng in
    check_split_rejoin ~bits a b
  done

(* Suffixes of 57 to 61 bits take 8 bytes: 64 bits, more than an int
   holds once left-aligned, so the byte packing straddles the word. *)
let test_word_boundary_cases () =
  List.iter
    (fun bits ->
      let ones = (1 lsl bits) - 1 in
      let alt = ones land 0x5555555555555555 in
      let values = [ 0; ones; alt; alt lxor ones; 1; 1 lsl (bits - 1) ] in
      List.iter (fun a -> List.iter (fun b -> check_split_rejoin ~bits a b) values) values)
    [ 55; 56; 57; 60; 61 ]

let expect_invalid what f =
  match f () with
  | _ -> Alcotest.failf "%s should raise" what
  | exception Invalid_argument _ -> ()

(* Rejoining refuses what no encoder writes: a header naming a
   variable-length run or a width no space has, and a shared prefix
   longer than the value. *)
let test_surgery_guards () =
  let s = Run.to_string (Run.encode ~bits:20 [| 1; 2; 3 |]) in
  let with_byte i v =
    let b = Bytes.of_string s in
    Bytes.set_uint8 b i v;
    Bytes.to_string b
  in
  expect_invalid "variable-length flags" (fun () -> Run.of_string (with_byte 0 0));
  expect_invalid "62-bit width" (fun () ->
      Run.of_string (with_byte 1 (Z.Space.max_total_bits + 1)));
  check "61-bit width parses" true
    (Run.count (Run.of_string (with_byte 1 Z.Space.max_total_bits)) = 3);
  (* entry 1's shared byte follows the header, one restart slot and
     restart 0's 3 key bytes *)
  let bad = Run.of_string (with_byte (7 + 2 + 3) 21) in
  expect_invalid "shared prefix past the width" (fun () -> Run.decode bad);
  check "validate reports it" true (Run.validate bad <> Ok ())

let test_encode_guards () =
  expect_invalid "value wider than its width" (fun () -> Run.encode ~bits:3 [| 8 |]);
  expect_invalid "negative value" (fun () -> Run.encode ~bits:3 [| -1 |]);
  expect_invalid "width past the space bound" (fun () ->
      Run.encode ~bits:(Z.Space.max_total_bits + 1) [||]);
  expect_invalid "negative width" (fun () -> Run.encode ~bits:(-1) [||]);
  expect_invalid "65536 values" (fun () -> Run.encode ~bits:20 (Array.make 65536 0))

let test_corruption_detected () =
  let _, zs = seeded_zs 400 in
  let run = Run.encode ~bits:20 zs in
  let s = Run.to_string run in
  (* Random single-byte flips anywhere in the serialized form must
     never crash with anything but Invalid_argument, and a run that
     still validates must still decode to 400 values of its width —
     Zrun is fed attacker-grade bytes by fsck. *)
  let rng = W.Rng.create ~seed:6 in
  for _ = 1 to 120 do
    let i = W.Rng.int rng (String.length s) in
    let b = Bytes.of_string s in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl W.Rng.int rng 8)));
    match Run.of_string (Bytes.to_string b) with
    | exception Invalid_argument _ -> ()
    | run' -> (
        match Run.validate run' with
        | Error _ -> ()
        | Ok () ->
            let vs = Run.decode run' in
            check_int "validated run decodes fully" (Run.count run')
              (Array.length vs);
            Array.iter (fun v -> check "20-bit values" true (v lsr 20 = 0)) vs)
  done;
  (* A shared-prefix byte claiming more bits than the key has. *)
  let header = 7 + (2 * (((400 - 1) / 16) + 1)) in
  let b = Bytes.of_string s in
  (* Entry 1's shared byte sits right after restart 0's 3 key bytes. *)
  Bytes.set b (header + 3) '\xff';
  (match Run.of_string (Bytes.to_string b) with
  | exception Invalid_argument _ -> ()
  | run' -> check "oversized shared prefix rejected" true (Run.validate run' <> Ok ()));
  (* Truncations are caught by parse or validate. *)
  for cut = 1 to 40 do
    let t = String.sub s 0 (String.length s - cut) in
    match Run.of_string t with
    | exception Invalid_argument _ -> ()
    | run' ->
        check "truncation detected" true (Run.validate run' <> Ok ())
  done

let () =
  Alcotest.run "zrun"
    [
      ( "roundtrip",
        [
          Alcotest.test_case "fixed-length mode" `Quick test_roundtrip_fixed;
          Alcotest.test_case "bytes match the packed codec's" `Quick test_golden_bytes;
          Alcotest.test_case "empty and singleton" `Quick test_empty_and_singleton;
          Alcotest.test_case "embedded in a larger string" `Quick
            test_string_roundtrip_with_offset;
        ] );
      ( "differential",
        [ Alcotest.test_case "agrees with Bitstring" `Quick test_agree_with_bitstring ] );
      ( "boundaries",
        [ Alcotest.test_case "word straddling" `Quick test_word_boundary_cases ] );
      ( "bit surgery",
        [
          Alcotest.test_case "split/rejoin roundtrip" `Quick test_surgery_roundtrip;
          Alcotest.test_case "guards" `Quick test_surgery_guards;
        ] );
      ( "integrity",
        [
          Alcotest.test_case "encode guards" `Quick test_encode_guards;
          Alcotest.test_case "bit flips and truncation" `Quick
            test_corruption_detected;
        ] );
    ]
