(* Unit and property tests for the front-coded run codec (Zrun): exact
   roundtrips in both length modes, the seeded-workload compression
   claim, and corruption detection. *)

module Z = Sqp_zorder
module B = Z.Bitstring
module P = Z.Zpacked
module Run = Z.Zrun
module W = Sqp_workload

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let pack_exn b =
  match P.of_bitstring b with Some p -> p | None -> assert false

(* Sorted full-resolution z values of [n] seeded points. *)
let seeded_zs n =
  let space = Z.Space.make ~dims:2 ~depth:10 in
  let rng = W.Rng.create ~seed:77 in
  let pts = W.Datagen.uniform rng ~side:1024 ~n ~dims:2 in
  let zs = Array.map (Z.Interleave.shuffle space) pts in
  Array.sort B.compare zs;
  (space, Array.map pack_exn zs)

(* Random variable-length values (not sorted, lengths 0..60). *)
let ragged_zs n =
  let rng = W.Rng.create ~seed:4242 in
  Array.init n (fun _ ->
      let len = W.Rng.int rng 61 in
      pack_exn (B.init len (fun _ -> W.Rng.int rng 2 = 0)))

let equal_arrays a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y -> B.equal (P.to_bitstring x) (P.to_bitstring y))
       a b

let test_roundtrip_fixed () =
  (* 5000 points — the standard workload's density, where neighbors
     share enough prefix bits for byte-granular front coding to win. *)
  let space, zs = seeded_zs 5000 in
  let run = Run.encode ~fixed_len:(Z.Space.total_bits space) zs in
  check "fixed mode" true (Run.fixed_len run = Some (Z.Space.total_bits space));
  check_int "count" 5000 (Run.count run);
  check "decode = input" true (equal_arrays zs (Run.decode run));
  check "validate" true (Run.validate run = Ok ());
  (* The compression claim: front-coded well under the raw bytes. *)
  check "compresses" true (Run.byte_length run < Run.raw_bytes run)

let test_roundtrip_variable_intervals () =
  let zs = ragged_zs 300 in
  List.iter
    (fun interval ->
      let run = Run.encode ~restart_interval:interval zs in
      check "variable mode" true (Run.fixed_len run = None);
      check_int "interval" interval (Run.restart_interval run);
      check "decode = input" true (equal_arrays zs (Run.decode run));
      check "validate" true (Run.validate run = Ok ()))
    [ 1; 2; 7; 16; 255 ]

let test_empty_and_singleton () =
  let empty = Run.encode [||] in
  check_int "empty count" 0 (Run.count empty);
  check "empty decode" true (Run.decode empty = [||]);
  check "empty validate" true (Run.validate empty = Ok ());
  let one = Run.encode [| pack_exn (B.of_string "1011") |] in
  check_int "singleton count" 1 (Run.count one);
  check_int "singleton len" 4 (P.length (Run.decode one).(0))

let test_string_roundtrip_with_offset () =
  let _, zs = seeded_zs 200 in
  let run = Run.encode ~fixed_len:20 zs in
  let s = "PREFIX" ^ Run.to_string run ^ "SUFFIX" in
  let back = Run.of_string ~pos:6 ~len:(Run.byte_length run) s in
  check "embedded parse" true (equal_arrays (Run.decode run) (Run.decode back));
  check "embedded validate" true (Run.validate back = Ok ())

let test_encode_guards () =
  (match Run.encode ~restart_interval:0 [||] with
  | _ -> Alcotest.fail "interval 0 should raise"
  | exception Invalid_argument _ -> ());
  (match Run.encode ~fixed_len:8 [| pack_exn (B.of_string "101") |] with
  | _ -> Alcotest.fail "length mismatch should raise"
  | exception Invalid_argument _ -> ())

let test_corruption_detected () =
  let _, zs = seeded_zs 400 in
  let run = Run.encode ~fixed_len:20 zs in
  let s = Run.to_string run in
  (* Random single-byte flips anywhere in the serialized form must
     never crash with anything but Invalid_argument, and a run that
     still validates must still decode to 400 full-length values —
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
            Array.iter (fun v -> check_int "full length" 20 (P.length v)) vs)
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
          Alcotest.test_case "variable mode, all intervals" `Quick
            test_roundtrip_variable_intervals;
          Alcotest.test_case "empty and singleton" `Quick test_empty_and_singleton;
          Alcotest.test_case "embedded in a larger string" `Quick
            test_string_roundtrip_with_offset;
        ] );
      ( "integrity",
        [
          Alcotest.test_case "encode guards" `Quick test_encode_guards;
          Alcotest.test_case "bit flips and truncation" `Quick
            test_corruption_detected;
        ] );
    ]
