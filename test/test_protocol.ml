(* Wire and Protocol codec tests: roundtrips for every scalar, value,
   relation, plan and message variant; typed errors (never escaping
   exceptions) on malformed, truncated, oversized and wrong-version
   input; seeded frame fuzz; frame I/O over a socketpair. *)

module B = Sqp_zorder.Bitstring
module Value = Sqp_relalg.Value
module Schema = Sqp_relalg.Schema
module Relation = Sqp_relalg.Relation
module Wire = Sqp_relalg.Wire
module P = Sqp_server.Protocol
module Rng = Sqp_workload.Rng

let check = Alcotest.check
let checkb = Alcotest.(check bool)

(* Roundtrip through a writer/reader pair, via Wire.encode/decode. *)
let roundtrip writer reader v = Wire.decode reader (Wire.encode writer v)

let ok = function Ok v -> v | Error m -> Alcotest.failf "decode failed: %s" m

(* {1 Scalars} *)

let test_scalars () =
  List.iter
    (fun n -> check Alcotest.int "u32" n (ok (roundtrip Wire.write_u32 Wire.read_u32 n)))
    [ 0; 1; 255; 65536; 0xffff_ffff ];
  List.iter
    (fun n -> check Alcotest.int "i64" n (ok (roundtrip Wire.write_i64 Wire.read_i64 n)))
    [ 0; 1; -1; max_int; min_int; 42; -12345678901234 ];
  List.iter
    (fun s ->
      check Alcotest.string "string" s
        (ok (roundtrip Wire.write_string Wire.read_string s)))
    [ ""; "x"; "hello wire"; String.make 1000 'z' ];
  (try
     ignore (Wire.encode Wire.write_u32 (-1));
     Alcotest.fail "negative u32 accepted"
   with Invalid_argument _ -> ())

let test_values () =
  let cases =
    [
      Value.Null;
      Value.Int 0;
      Value.Int (-7);
      Value.Int max_int;
      Value.Float 3.5;
      Value.Float (-0.);
      Value.Float infinity;
      Value.Str "spatial";
      Value.Bool true;
      Value.Bool false;
      Value.Zval B.empty;
      Value.Zval (B.of_string "1011001");
      Value.Zval (B.init 61 (fun i -> i mod 3 = 0));
    ]
  in
  List.iter
    (fun v ->
      let v' = ok (roundtrip Wire.write_value Wire.read_value v) in
      checkb "value roundtrip" true (Value.equal v v'))
    cases;
  (* A Zval's bytes: tag 5, its u32 bit length, then its bits MSB-first
     with the last byte zero-padded. *)
  let zval_bytes z = Wire.encode Wire.write_value (Value.Zval z) in
  check Alcotest.string "7-bit Zval bytes" "\x05\x00\x00\x00\x07\xb2"
    (zval_bytes (B.of_string "1011001"));
  let z61 = "\x92\x49\x24\x92\x49\x24\x92\x48" in
  check Alcotest.string "61-bit Zval bytes" ("\x05\x00\x00\x00\x3d" ^ z61)
    (zval_bytes (B.init 61 (fun i -> i mod 3 = 0)));
  (* A length field past 61 bits is corrupt, whatever the body holds. *)
  (match Wire.read_value (Wire.cursor ("\x05\x00\x00\x00\x3e" ^ z61)) with
  | _ -> Alcotest.fail "a 62-bit Zval decoded"
  | exception Wire.Corrupt _ -> ());
  (* NaN: equality fails by definition, compare bit patterns instead *)
  match ok (roundtrip Wire.write_value Wire.read_value (Value.Float nan)) with
  | Value.Float f -> checkb "nan" true (Float.is_nan f)
  | _ -> Alcotest.fail "nan decoded to a different constructor"

let test_relation_roundtrip () =
  let schema =
    Schema.make
      [ ("id", Value.TInt); ("z", Value.TZval); ("w", Value.TFloat); ("s", Value.TStr) ]
  in
  let rel =
    Relation.make ~name:"mixed" schema
      [
        [| Value.Int 1; Value.Zval (B.of_string "101"); Value.Float 0.5; Value.Str "a" |];
        [| Value.Int 2; Value.Zval B.empty; Value.Null; Value.Str "" |];
      ]
  in
  let rel' = ok (roundtrip Wire.write_relation Wire.read_relation rel) in
  check Alcotest.string "name" (Relation.name rel) (Relation.name rel');
  checkb "schema" true (Schema.equal (Relation.schema rel) (Relation.schema rel'));
  checkb "tuples" true (Relation.equal_contents rel rel')

(* {1 Plans} *)

let deep_plan =
  Wire.(
    Project
      ( [ "a" ],
        Union
          ( Select_equals ("k", Value.Int 3, Scan "R"),
            Rename
              ( [ ("x", "y") ],
                Sort
                  ( [ "y" ],
                    Natural_join
                      ( Select_between ("v", Value.Int 1, Value.Int 9, Scan "S"),
                        Spatial_join
                          {
                            zl = "zr";
                            zr = "zs";
                            left = Product (Scan "R", Project_all ([ "z" ], Scan "S"));
                            right = Scan "S";
                          } ) ) ) ) ))

let test_plan_roundtrip () =
  let bytes = Wire.encode Wire.write_plan deep_plan in
  let p = ok (Wire.decode Wire.read_plan bytes) in
  (* plans contain only structural data; re-encoding is the strictest
     equality we can ask for *)
  check Alcotest.string "re-encoded bytes" bytes (Wire.encode Wire.write_plan p)

let test_plan_depth_guard () =
  let rec nest n p = if n = 0 then p else nest (n - 1) (Wire.Project ([ "a" ], p)) in
  let too_deep = nest (Wire.max_plan_depth + 1) (Wire.Scan "R") in
  match Wire.decode Wire.read_plan (Wire.encode Wire.write_plan too_deep) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "over-deep plan decoded"

(* {1 Messages} *)

let req_ok = function
  | Ok f -> f
  | Error (c, m) -> Alcotest.failf "request rejected (%s): %s" (P.error_code_name c) m

(* A two-entry shard map for the cluster frames (tags 12/13/14 and
   response tag 7). *)
let shard_map =
  Sqp_server.Shard_map.make ~epoch:7
    [
      { Sqp_server.Shard_map.zlo = 0; zhi = 2047; host = "127.0.0.1"; port = 4001 };
      { Sqp_server.Shard_map.zlo = 2048; zhi = 4095; host = "10.0.0.2"; port = 65535 };
    ]

(* [Shard_map.make] must enforce contiguous coverage from z = 0: the
   router routes mutations by exact ownership, so a gap would leave z
   values no shard owns and a mutation there unroutable. *)
let test_shard_map_validation () =
  let module SM = Sqp_server.Shard_map in
  let entry zlo zhi = { SM.zlo; zhi; host = "h"; port = 1 } in
  let rejects what entries =
    match SM.make ~epoch:1 entries with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "map with %s accepted" what
  in
  rejects "a coverage gap" [ entry 0 10; entry 12 20 ];
  rejects "an overlap" [ entry 0 10; entry 10 20 ];
  rejects "a nonzero start" [ entry 1 20 ];
  rejects "descending entries" [ entry 11 20; entry 0 10 ];
  rejects "inverted bounds" [ entry 0 10; entry 11 5 ];
  rejects "no entries" [];
  ignore (SM.make ~epoch:1 [ entry 0 10; entry 11 20 ]);
  (* The even split is a valid map up to the widest spaces, where
     [i * 2^total] no longer fits an int. *)
  Alcotest.(check (list (pair int int)))
    "2x10 in 3" [ (0, 349524); (349525, 699049); (699050, 1048575) ]
    (SM.even_ranges (Sqp_zorder.Space.make ~dims:2 ~depth:10) 3);
  List.iter
    (fun (dims, depth) ->
      let space = Sqp_zorder.Space.make ~dims ~depth in
      let last = (1 lsl Sqp_zorder.Space.total_bits space) - 1 in
      for n = 1 to 7 do
        let ranges = SM.even_ranges space n in
        let sizes = List.map (fun (lo, hi) -> hi - lo + 1) ranges in
        ignore (SM.make ~epoch:1 (List.map (fun (lo, hi) -> entry lo hi) ranges));
        Alcotest.(check int) "covers the space" last (snd (List.nth ranges (n - 1)));
        Alcotest.(check bool) "sizes within one" true
          (List.fold_left max 0 sizes - List.fold_left min max_int sizes <= 1)
      done)
    [ (1, 61); (2, 30); (3, 20) ]

let test_request_roundtrip () =
  let key client_id request_seq = Some { P.client_id; request_seq } in
  let cases =
    [
      (None, None, P.Range_search { lo = [| 0; 0 |]; hi = [| 1023; 1023 |] });
      (Some 250, None, P.Query deep_plan);
      (None, None, P.Explain (Wire.Scan "R"));
      (Some 1, None, P.Analyze (Wire.Scan "S"));
      (None, None, P.Health);
      ( Some 100,
        key 424_242 1,
        P.Insert
          {
            table = "L";
            points = [ ([| 1; 2 |], 7); ([| 3; 4 |], -1); ([| 0; 0 |], max_int) ];
          } );
      (None, None, P.Insert { table = ""; points = [] });
      ( None,
        key max_int max_int,
        P.Delete { table = "L"; points = [ [| 9; 9 |]; [| 1; 2; 3 |] ] } );
      (Some 5, key 7 0, P.Create_index { table = "L" });
      ( None,
        key 1 2,
        P.Live_range { table = "L"; lo = [| 0; 0 |]; hi = [| 255; 255 |] } );
      (None, None, P.Refresh_stats);
      (Some 3000, None, P.Refresh_stats);
      (None, None, P.Recover);
      (None, None, P.Shard_map_get);
      (Some 99, None, P.Shard_map_set { map = shard_map; self = 1 });
      (None, None, P.Shard_map_set { map = shard_map; self = -1 });
      (Some 10, None, P.Forward { epoch = 3; payload = "\x00\xffraw bytes" });
      (None, None, P.Forward { epoch = 0xFFFF_FFFF; payload = "\x02\x07" });
    ]
  in
  List.iter
    (fun (deadline_ms, idem, request) ->
      let bytes = P.encode_request { P.deadline_ms; idem; request } in
      let f = req_ok (P.decode_request bytes) in
      check Alcotest.(option int) "deadline" deadline_ms f.P.deadline_ms;
      checkb "idem" true (idem = f.P.idem);
      check Alcotest.string "request bytes" bytes
        (P.encode_request
           { P.deadline_ms = f.P.deadline_ms; idem = f.P.idem; request = f.P.request }))
    cases

let test_response_roundtrip () =
  let rel =
    Relation.make ~name:"r"
      (Schema.make [ ("rid", Value.TInt); ("sid", Value.TInt) ])
      [ [| Value.Int 1; Value.Int 1000 |] ]
  in
  let cases =
    [
      P.Rows rel;
      P.Text "project {a}\n  scan R\n";
      P.Analyzed { rendered = "analyze"; rows = rel };
      P.Health_report
        {
          healthy = true;
          detail = "ok";
          in_flight = 2;
          queued = 1;
          served = 99;
          mode = "serving";
        };
      P.Error { code = P.Overloaded; message = "queue full" };
      P.Error { code = P.Degraded; message = "disk full" };
      P.Ack { applied = 0; seq = 0 };
      P.Ack { applied = 42; seq = 1_000_000 };
      P.Shard_map shard_map;
      P.Error { code = P.Stale_epoch; message = "request epoch 3, shard at 4" };
    ]
  in
  List.iter
    (fun resp ->
      let bytes = P.encode_response resp in
      match P.decode_response bytes with
      | Error m -> Alcotest.failf "response rejected: %s" m
      | Ok resp' ->
          check Alcotest.string "response bytes" bytes (P.encode_response resp'))
    cases

(* {1 Malformed input draws typed errors, never exceptions} *)

let expect_code code bytes what =
  match P.decode_request bytes with
  | Ok _ -> Alcotest.failf "%s decoded" what
  | Error (c, _) ->
      check Alcotest.string what (P.error_code_name code) (P.error_code_name c)

let test_malformed_requests () =
  expect_code P.Bad_request "" "empty payload";
  expect_code P.Bad_request "\x01" "one byte";
  (* version 9, and the retired version 1 (no idempotency block) *)
  expect_code P.Unsupported_version "\x09\x05\x00\x00\x00\x00" "future version";
  expect_code P.Unsupported_version "\x01\x05\x00\x00\x00\x00" "version 1";
  (* unknown tag 200 *)
  expect_code P.Bad_request "\x02\xc8\x00\x00\x00\x00\x00" "unknown tag";
  (* health with trailing bytes *)
  expect_code P.Bad_request "\x02\x05\x00\x00\x00\x00\x00XX" "trailing bytes";
  (* range search truncated mid-array *)
  let full =
    P.encode_request
      {
        P.deadline_ms = None;
        idem = None;
        request = P.Range_search { lo = [| 3; 4 |]; hi = [| 5; 6 |] };
      }
  in
  expect_code P.Bad_request (String.sub full 0 (String.length full - 5)) "truncated";
  (* dimensionality mismatch *)
  let b = Buffer.create 32 in
  Wire.write_u8 b P.version;
  Wire.write_u8 b 1;
  Wire.write_u32 b 0;
  Wire.write_u8 b 0;
  Wire.write_u32 b 1;
  Wire.write_i64 b 7;
  Wire.write_u32 b 2;
  Wire.write_i64 b 8;
  Wire.write_i64 b 9;
  expect_code P.Bad_request (Buffer.contents b) "lo/hi mismatch";
  (* absurd dimension count *)
  let b = Buffer.create 32 in
  Wire.write_u8 b P.version;
  Wire.write_u8 b 1;
  Wire.write_u32 b 0;
  Wire.write_u8 b 0;
  Wire.write_u32 b 1_000_000;
  expect_code P.Bad_request (Buffer.contents b) "dimension bomb";
  (* insert truncated mid-point-list *)
  let full =
    P.encode_request
      {
        P.deadline_ms = None;
        idem = None;
        request = P.Insert { table = "L"; points = [ ([| 1; 2 |], 3) ] };
      }
  in
  expect_code P.Bad_request (String.sub full 0 (String.length full - 3))
    "truncated insert";
  (* delete advertising more points than the payload carries *)
  let b = Buffer.create 32 in
  Wire.write_u8 b P.version;
  Wire.write_u8 b 7;
  Wire.write_u32 b 0;
  Wire.write_u8 b 0;
  Wire.write_string b "L";
  Wire.write_u32 b 50_000;
  expect_code P.Bad_request (Buffer.contents b) "delete count bomb";
  (* live range with mismatched bound dimensionality *)
  let b = Buffer.create 32 in
  Wire.write_u8 b P.version;
  Wire.write_u8 b 9;
  Wire.write_u32 b 0;
  Wire.write_u8 b 0;
  Wire.write_string b "L";
  Wire.write_int_array b [| 1; 2 |];
  Wire.write_int_array b [| 3; 4; 5 |];
  expect_code P.Bad_request (Buffer.contents b) "live range lo/hi mismatch";
  (* idempotency key on a non-mutation tag *)
  let b = Buffer.create 32 in
  Wire.write_u8 b P.version;
  Wire.write_u8 b 5;
  Wire.write_u32 b 0;
  Wire.write_u8 b 1;
  Wire.write_i64 b 7;
  Wire.write_i64 b 1;
  expect_code P.Bad_request (Buffer.contents b) "idem on health";
  (* idempotency flag byte that is neither 0 nor 1 *)
  let b = Buffer.create 32 in
  Wire.write_u8 b P.version;
  Wire.write_u8 b 6;
  Wire.write_u32 b 0;
  Wire.write_u8 b 9;
  Wire.write_string b "L";
  Wire.write_point_list b [];
  expect_code P.Bad_request (Buffer.contents b) "bad idem flag";
  (* the encoder refuses to build the same nonsense *)
  try
    ignore
      (P.encode_request
         {
           P.deadline_ms = None;
           idem = Some { P.client_id = 1; request_seq = 1 };
           request = P.Health;
         });
    Alcotest.fail "encode accepted idem on Health"
  with Invalid_argument _ -> ()

let test_malformed_responses () =
  List.iter
    (fun (bytes, what) ->
      match P.decode_response bytes with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%s decoded" what)
    [
      ("", "empty");
      ("\x07\x01", "future version");
      ("\x01\x02\x00\x00\x00\x02ok", "version 1");
      ("\x02\xff", "unknown tag");
      ("\x02\x02\x00\x00\x00\x09ab", "string length past end");
      ("\x02\x05\x2a\x00\x00\x00\x00", "unknown error code");
    ];
  (* relation with an inflated tuple count *)
  let b = Buffer.create 64 in
  Wire.write_u8 b P.version;
  Wire.write_u8 b 1;
  Wire.write_string b "r";
  Wire.write_schema b (Schema.make [ ("id", Value.TInt) ]);
  Wire.write_u32 b 0xffff_ff00;
  match P.decode_response (Buffer.contents b) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "count bomb decoded"

(* {1 Seeded fuzz}

   Random bytes, and random corruptions of valid frames, must always
   come back as [Ok] or a typed [Error] — decoders may not raise. *)

let test_fuzz_random_bytes () =
  let rng = Rng.create ~seed:4242 in
  for _ = 1 to 4000 do
    let len = Rng.int rng 80 in
    let s = String.init len (fun _ -> Char.chr (Rng.int rng 256)) in
    (try ignore (P.decode_request s)
     with e ->
       Alcotest.failf "decode_request raised %s on %S" (Printexc.to_string e) s);
    try ignore (P.decode_response s)
    with e ->
      Alcotest.failf "decode_response raised %s on %S" (Printexc.to_string e) s
  done

let test_fuzz_corrupted_frames () =
  let rng = Rng.create ~seed:777 in
  let valid =
    [|
      P.encode_request
        { P.deadline_ms = Some 5; idem = None; request = P.Query deep_plan };
      P.encode_request
        {
          P.deadline_ms = None;
          idem = None;
          request = P.Range_search { lo = [| 1; 2 |]; hi = [| 3; 4 |] };
        };
      P.encode_request
        {
          P.deadline_ms = Some 9;
          idem = Some { P.client_id = 123_456; request_seq = 42 };
          request = P.Insert { table = "L"; points = [ ([| 5; 6 |], 1); ([| 7; 8 |], 2) ] };
        };
      P.encode_request
        {
          P.deadline_ms = None;
          idem = None;
          request = P.Live_range { table = "L"; lo = [| 0; 0 |]; hi = [| 9; 9 |] };
        };
      P.encode_response (P.Ack { applied = 3; seq = 17 });
      P.encode_response
        (P.Rows
           (Relation.make
              (Schema.make [ ("z", Value.TZval) ])
              [ [| Value.Zval (B.of_string "110") |] ]));
    |]
  in
  for _ = 1 to 2000 do
    let base = valid.(Rng.int rng (Array.length valid)) in
    let b = Bytes.of_string base in
    for _ = 0 to Rng.int rng 4 do
      Bytes.set b (Rng.int rng (Bytes.length b)) (Char.chr (Rng.int rng 256))
    done;
    let s = Bytes.to_string b in
    try
      ignore (P.decode_request s);
      ignore (P.decode_response s)
    with e -> Alcotest.failf "corruption raised %s" (Printexc.to_string e)
  done

(* {1 Frame I/O} *)

let with_socketpair f =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error _ -> ());
      try Unix.close b with Unix.Unix_error _ -> ())
    (fun () -> f a b)

let test_frame_roundtrip () =
  with_socketpair (fun a b ->
      let payload =
        P.encode_request { P.deadline_ms = None; idem = None; request = P.Health }
      in
      P.write_frame a payload;
      P.write_frame a payload;
      (match P.read_frame b with
      | Ok p -> check Alcotest.string "frame 1" payload p
      | Error e -> Alcotest.failf "read 1: %s" (P.read_error_to_string e));
      match P.read_frame b with
      | Ok p -> check Alcotest.string "frame 2" payload p
      | Error e -> Alcotest.failf "read 2: %s" (P.read_error_to_string e))

let test_frame_eof_and_truncation () =
  with_socketpair (fun a b ->
      Unix.close a;
      match P.read_frame b with
      | Error P.Eof -> ()
      | _ -> Alcotest.fail "expected Eof");
  with_socketpair (fun a b ->
      (* a length prefix promising 100 bytes, then silence *)
      ignore (Unix.write a (Bytes.of_string "\x00\x00\x00\x64xy") 0 6);
      Unix.close a;
      match P.read_frame b with
      | Error P.Truncated -> ()
      | _ -> Alcotest.fail "expected Truncated");
  with_socketpair (fun a b ->
      (* prefix itself cut short *)
      ignore (Unix.write a (Bytes.of_string "\x00\x00") 0 2);
      Unix.close a;
      match P.read_frame b with
      | Error P.Truncated -> ()
      | _ -> Alcotest.fail "expected Truncated on short prefix")

let test_frame_oversized () =
  with_socketpair (fun a b ->
      ignore (Unix.write a (Bytes.of_string "\xff\xff\xff\xff") 0 4);
      match P.read_frame ~max_bytes:4096 b with
      | Error (P.Oversized n) -> check Alcotest.int "length" 0xffff_ffff n
      | _ -> Alcotest.fail "expected Oversized");
  with_socketpair (fun a b ->
      (* below the 2-byte floor is equally unusable *)
      ignore (Unix.write a (Bytes.of_string "\x00\x00\x00\x01") 0 4);
      match P.read_frame b with
      | Error (P.Oversized 1) -> ()
      | _ -> Alcotest.fail "expected Oversized 1")

(* The session timeouts: a silent peer trips the idle timeout (not
   mid-frame), a dribbling peer trips the frame timeout (mid-frame), and
   a peer that stops reading trips the write timeout. *)
let test_frame_stalls () =
  with_socketpair (fun _a b ->
      (* nothing sent at all: idle, not mid-frame *)
      match P.read_frame_io ~idle_timeout:0.05 (P.io_of_fd b) with
      | Error (P.Stalled { mid_frame = false }) -> ()
      | r ->
          Alcotest.failf "expected idle stall, got %s"
            (match r with
            | Ok _ -> "a frame"
            | Error e -> P.read_error_to_string e));
  with_socketpair (fun a b ->
      (* half a length prefix, then silence: mid-frame *)
      ignore (Unix.write a (Bytes.of_string "\x00\x00") 0 2);
      match P.read_frame_io ~idle_timeout:0.05 (P.io_of_fd b) with
      | Error (P.Stalled { mid_frame = true }) -> ()
      | _ -> Alcotest.fail "expected mid-frame stall on a torn prefix");
  with_socketpair (fun a b ->
      (* full prefix, partial payload, then silence: the slow loris *)
      ignore (Unix.write a (Bytes.of_string "\x00\x00\x00\x64xy") 0 6);
      match P.read_frame_io ~frame_timeout:0.05 (P.io_of_fd b) with
      | Error (P.Stalled { mid_frame = true }) -> ()
      | _ -> Alcotest.fail "expected mid-frame stall on a dribbled payload");
  with_socketpair (fun a _b ->
      (* the peer never reads: a large frame must not block forever *)
      let payload = String.make 4_000_000 'x' in
      match P.write_frame_io ~timeout:0.05 (P.io_of_fd a) payload with
      | () -> Alcotest.fail "oversized write completed against a full buffer"
      | exception Unix.Unix_error (Unix.ETIMEDOUT, _, _) -> ())

let () =
  Alcotest.run "protocol"
    [
      ( "wire",
        [
          Alcotest.test_case "scalars" `Quick test_scalars;
          Alcotest.test_case "values" `Quick test_values;
          Alcotest.test_case "relation" `Quick test_relation_roundtrip;
          Alcotest.test_case "plan" `Quick test_plan_roundtrip;
          Alcotest.test_case "plan depth guard" `Quick test_plan_depth_guard;
        ] );
      ( "messages",
        [
          Alcotest.test_case "request roundtrip" `Quick test_request_roundtrip;
          Alcotest.test_case "response roundtrip" `Quick test_response_roundtrip;
          Alcotest.test_case "malformed requests" `Quick test_malformed_requests;
          Alcotest.test_case "malformed responses" `Quick test_malformed_responses;
          Alcotest.test_case "shard map validation" `Quick
            test_shard_map_validation;
        ] );
      ( "fuzz",
        [
          Alcotest.test_case "random bytes" `Quick test_fuzz_random_bytes;
          Alcotest.test_case "corrupted frames" `Quick test_fuzz_corrupted_frames;
        ] );
      ( "framing",
        [
          Alcotest.test_case "roundtrip" `Quick test_frame_roundtrip;
          Alcotest.test_case "eof and truncation" `Quick test_frame_eof_and_truncation;
          Alcotest.test_case "oversized" `Quick test_frame_oversized;
          Alcotest.test_case "stalls and timeouts" `Quick test_frame_stalls;
        ] );
    ]
