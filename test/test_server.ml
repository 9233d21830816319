(* End-to-end server acceptance tests.

   The heart is remote execution fidelity: concurrent loopback clients
   issuing a seeded query battery must receive results identical to
   running the same plans in-process with [Plan.run] — and afterwards
   the serving metrics must reconcile (in-flight gauge back to 0,
   latency histogram count equal to the number of requests).  Around
   that: deterministic overload (Overloaded, no crash), deadline
   timeouts, typed catalog errors, malformed frames at the socket, and
   graceful drain completing an in-flight query. *)

module P = Sqp_server.Protocol
module Client = Sqp_server.Client
module Server = Sqp_server.Server
module Catalog = Sqp_server.Catalog
module Wire = Sqp_relalg.Wire
module Plan = Sqp_relalg.Plan
module Relation = Sqp_relalg.Relation
module M = Sqp_obs.Metrics
module Box = Sqp_geom.Box

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* One modest seeded fixture for the whole file (server startup also
   materializes R and S onto stored pages). *)
let wk = Sqp_workload.Seeded.standard ~n_points:400 ~n_objects:12 ~n_query_boxes:24 ()
let catalog = Catalog.of_seeded wk

let join_plan =
  Wire.(
    Project
      ( [ "rid"; "sid" ],
        Spatial_join { zl = "zr"; zr = "zs"; left = Scan "R"; right = Scan "S" } ))

let with_server ?(config = Server.default_config) f =
  let metrics = M.create () in
  let server = Server.start ~config ~metrics catalog in
  Fun.protect
    ~finally:(fun () -> Server.stop server)
    (fun () -> f server metrics)

let reply_ok what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" what (Client.error_to_string e)

let expect_error what code = function
  | Ok _ -> Alcotest.failf "%s: expected %s" what (P.error_code_name code)
  | Error (Client.Remote { code = c; _ }) ->
      Alcotest.(check string) what (P.error_code_name code) (P.error_code_name c)
  | Error (Client.Transport _ as e) ->
      Alcotest.failf "%s: expected %s, got %s" what (P.error_code_name code)
        (Client.error_to_string e)

let eventually ?(timeout = 5.0) cond =
  let t0 = Unix.gettimeofday () in
  let rec go () =
    if cond () then true
    else if Unix.gettimeofday () -. t0 > timeout then false
    else (
      Thread.delay 0.002;
      go ())
  in
  go ()

(* {1 Remote execution fidelity under concurrency} *)

let test_concurrent_differential () =
  with_server (fun server metrics ->
      let port = Server.port server in
      let boxes = Array.sub wk.Sqp_workload.Seeded.query_boxes 0 6 in
      (* the in-process oracle: the same plans, run directly *)
      let expected_ranges =
        Array.map
          (fun box ->
            Plan.run (Catalog.range_plan catalog ~lo:(Box.lo box) ~hi:(Box.hi box)))
          boxes
      in
      let expected_join = Plan.run (Catalog.overlap_plan catalog) in
      let n_clients = 4 in
      let failures = Atomic.make 0 in
      let sent = Atomic.make 0 in
      let client_thread _c =
        Client.with_connect ~port (fun client ->
            Array.iteri
              (fun i box ->
                Atomic.incr sent;
                let got =
                  reply_ok "range"
                    (Client.range_search client ~lo:(Box.lo box) ~hi:(Box.hi box))
                in
                if not (Relation.equal_contents expected_ranges.(i) got) then
                  Atomic.incr failures)
              boxes;
            Atomic.incr sent;
            let got = reply_ok "join" (Client.query client join_plan) in
            if not (Relation.equal_contents expected_join got) then
              Atomic.incr failures)
      in
      let threads = List.init n_clients (fun c -> Thread.create client_thread c) in
      List.iter Thread.join threads;
      checki "every remote result matched Plan.run" 0 (Atomic.get failures);
      (* one health probe on a fresh connection *)
      Atomic.incr sent;
      let h =
        Client.with_connect ~port (fun c -> reply_ok "health" (Client.health c))
      in
      checkb "healthy" true h.P.healthy;
      checki "health sees drained queues" 0 h.P.in_flight;
      (* metrics reconcile with what we sent *)
      let total = Atomic.get sent in
      checki "requests counter" total
        (M.counter_value (M.counter metrics "server.requests"));
      checki "all answered ok" total
        (M.counter_value (M.counter metrics "server.responses.ok"));
      checki "in-flight gauge back to 0" 0
        (M.gauge_value (M.gauge metrics "server.in_flight"));
      match List.assoc_opt "server.latency_us" (M.snapshot metrics) with
      | Some (M.Histogram_v { count; _ }) ->
          checki "latency histogram count = requests" total count
      | _ -> Alcotest.fail "latency histogram missing")

(* {1 One range path}

   A catalog answers every range request with the exact cover on the
   skip merge over the catalog's tree: each
   request is one [server.range.pages] observation and no spatial join
   runs.  The rows are the linear scan's, in z order. *)

let pages_observed metrics =
  match List.assoc_opt "server.range.pages" (M.snapshot metrics) with
  | Some (M.Histogram_v { count; sum; _ }) -> (count, sum)
  | _ -> (0, 0)

let test_range_one_path () =
  let cat = Catalog.of_seeded wk in
  let metrics = M.create () in
  let server = Server.start ~metrics cat in
  let g = M.global () in
  let joins () =
    List.filter
      (fun (name, _) -> String.starts_with ~prefix:"spatial_join." name)
      (M.snapshot g)
  in
  Sqp_obs.Trace.set_global (Sqp_obs.Trace.create Sqp_obs.Trace.Collect);
  Fun.protect
    ~finally:(fun () ->
      Sqp_obs.Trace.set_global Sqp_obs.Trace.null;
      Server.stop server)
    (fun () ->
      let space = Catalog.space cat in
      let points = wk.Sqp_workload.Seeded.points in
      let scan = Sqp_kdtree.Linear_scan.build (Array.map (fun p -> (p, ())) points) in
      let boxes = wk.Sqp_workload.Seeded.query_boxes in
      let joins0 = joins () in
      Client.with_connect ~port:(Server.port server) (fun client ->
          Array.iteri
            (fun i box ->
              let got =
                reply_ok "range"
                  (Client.range_search client ~lo:(Box.lo box) ~hi:(Box.hi box))
              in
              let expected =
                List.stable_sort
                  (fun a b ->
                    compare
                      (Sqp_zorder.Interleave.rank space a)
                      (Sqp_zorder.Interleave.rank space b))
                  (List.map fst (fst (Sqp_kdtree.Linear_scan.range_search scan box)))
              in
              let rows =
                List.map
                  (Array.map Sqp_relalg.Value.to_int)
                  (Relation.tuples got)
              in
              checkb (Printf.sprintf "box %d: linear-scan rows in z order" i) true
                (rows = expected))
            boxes);
      checki "one page count per request" (Array.length boxes)
        (fst (pages_observed metrics));
      checkb "no spatial join ran" true (joins () = joins0))

(* The first range request on each session can arrive at once.  The
   catalog builds nothing on first use, so two domains answering the
   first range of a fresh catalog at the same moment both get the bytes
   one domain alone writes. *)
let test_concurrent_first_range () =
  let space = Sqp_zorder.Space.make ~dims:2 ~depth:10 in
  let rng = Sqp_workload.Rng.create ~seed:11 in
  let points =
    List.init 20_000 (fun i ->
        (i, [| Sqp_workload.Rng.int rng 1024; Sqp_workload.Rng.int rng 1024 |]))
  in
  let at_once f g =
    let ready = Atomic.make 0 in
    let go h () =
      Atomic.incr ready;
      while Atomic.get ready < 2 do
        Domain.cpu_relax ()
      done;
      h ()
    in
    let d = Domain.spawn (go g) in
    let a = go f () in
    (a, Domain.join d)
  in
  let box = Box.make ~lo:[| 100; 200 |] ~hi:[| 700; 650 |] in
  let alone = Server.range_answer (Catalog.make ~space ~points ~relations:[] ()) box in
  checkb "the box holds rows" true (String.length alone > 1000);
  for _ = 1 to 2 do
    let cat = Catalog.make ~space ~points ~relations:[] () in
    let a, b =
      at_once (fun () -> Server.range_answer cat box) (fun () -> Server.range_answer cat box)
    in
    Alcotest.(check string) "first domain's bytes" alone a;
    Alcotest.(check string) "second domain's bytes" alone b
  done

(* {1 Typed errors for bad plans} *)

let test_catalog_errors () =
  with_server (fun server _ ->
      Client.with_connect ~port:(Server.port server) (fun client ->
          expect_error "unknown relation" P.Unknown_relation
            (Client.query client (Wire.Scan "NOPE"));
          expect_error "unknown attribute" P.Bad_request
            (Client.query client (Wire.Project ([ "nope" ], Wire.Scan "R")));
          expect_error "inverted range" P.Bad_request
            (Client.range_search client ~lo:[| 50; 50 |] ~hi:[| 10; 10 |]);
          expect_error "wrong dimensionality" P.Bad_request
            (Client.range_search client ~lo:[| 1 |] ~hi:[| 2 |]);
          (* the session survived all of it *)
          let rows = reply_ok "after errors" (Client.query client join_plan) in
          checkb "still serving" true (Relation.cardinality rows >= 0)))

let test_explain_and_analyze () =
  with_server (fun server _ ->
      Client.with_connect ~port:(Server.port server) (fun client ->
          let text = reply_ok "explain" (Client.explain client join_plan) in
          let contains hay needle =
            let n = String.length needle and h = String.length hay in
            let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
            go 0
          in
          checkb "explain mentions the join" true (contains text "spatial join");
          let rendered, rows = reply_ok "analyze" (Client.analyze client join_plan) in
          checkb "analyze rendered" true (String.length rendered > 0);
          let expected = Plan.run (Catalog.overlap_plan catalog) in
          checkb "analyze rows match" true (Relation.equal_contents expected rows)))

(* {1 Live ingest over the wire}

   Mutation frames against the "L" live table, checked for fidelity
   against the in-process table the server serves from: acks carry the
   table's own sequence numbers, snapshot reads match a direct
   [Live.range_search], and applied counts reflect actual presence. *)

module Live = Sqp_btree.Live

let test_live_ingest () =
  with_server (fun server _ ->
      Client.with_connect ~port:(Server.port server) (fun c ->
          let lv = Option.get (Catalog.live catalog "L") in
          expect_error "unknown live table" P.Unknown_relation
            (Client.insert c ~table:"NOPE" [ ([| 1; 2 |], 1) ]);
          expect_error "point outside the space" P.Bad_request
            (Client.insert c ~table:"L" [ ([| 1_000_000; 0 |], 1) ]);
          let len0 = Live.length lv in
          let pts =
            [ ([| 3; 4 |], 100_000); ([| 3; 4 |], 100_001); ([| 250; 7 |], 100_002) ]
          in
          let applied, seq = reply_ok "insert" (Client.insert c ~table:"L" pts) in
          checki "insert applied all" 3 applied;
          checki "ack seq is the table's" (Live.seq lv) seq;
          checki "table grew" (len0 + 3) (Live.length lv);
          (* snapshot read over the wire = direct snapshot read *)
          let lo = [| 0; 0 |] and hi = [| 63; 63 |] in
          let expected, _ =
            Live.range_search (Live.snapshot lv) (Box.make ~lo ~hi)
          in
          let rows = reply_ok "live range" (Client.live_range c ~table:"L" ~lo ~hi) in
          checki "live range cardinality" (List.length expected)
            (Relation.cardinality rows);
          expect_error "inverted live range" P.Bad_request
            (Client.live_range c ~table:"L" ~lo:[| 9; 9 |] ~hi:[| 1; 1 |]);
          (* applied counts actual presence: one delete per entry at the
             point, plus one that finds nothing *)
          let count_at p =
            List.length
              (List.filter
                 (fun (q, _) -> q = p)
                 (Live.snapshot_entries (Live.snapshot lv)))
          in
          let n = count_at [| 250; 7 |] in
          checkb "the inserted point is present" true (n >= 1);
          let applied, _ =
            reply_ok "delete"
              (Client.delete c ~table:"L"
                 (List.init (n + 1) (fun _ -> [| 250; 7 |])))
          in
          checki "delete applied counts presence" n applied;
          checki "point fully removed" 0 (count_at [| 250; 7 |]);
          (* online rebuild through the wire, then reads still serve *)
          let applied, seq = reply_ok "create index" (Client.create_index c ~table:"L") in
          checki "index covers the table" (Live.length lv) applied;
          checki "rebuild seq is the table's" (Live.seq lv) seq;
          let expected, _ =
            Live.range_search (Live.snapshot lv) (Box.make ~lo ~hi)
          in
          let rows =
            reply_ok "live range after rebuild"
              (Client.live_range c ~table:"L" ~lo ~hi)
          in
          checki "post-rebuild live range" (List.length expected)
            (Relation.cardinality rows)))

(* {1 Deterministic overload: Overloaded, not collapse} *)

let test_overload_sheds () =
  let gate = Atomic.make true in
  let started = Atomic.make false in
  let config =
    {
      Server.default_config with
      max_in_flight = 1;
      max_queue = 0;
      on_execute =
        (fun () ->
          Atomic.set started true;
          while Atomic.get gate do
            Thread.delay 0.002
          done);
    }
  in
  with_server ~config (fun server metrics ->
      let port = Server.port server in
      let slow_result = ref None in
      let slow =
        Thread.create
          (fun () ->
            Client.with_connect ~port (fun c ->
                slow_result := Some (Client.query c join_plan)))
          ()
      in
      checkb "slow query entered execution" true
        (eventually (fun () -> Atomic.get started));
      (* the only slot is held and the queue has no room: shed *)
      Client.with_connect ~port (fun c ->
          expect_error "overloaded" P.Overloaded
            (Client.range_search c ~lo:[| 0; 0 |] ~hi:[| 10; 10 |]));
      (* health still answers during the overload (it bypasses admission) *)
      Client.with_connect ~port (fun c -> ignore (reply_ok "health" (Client.health c)));
      Atomic.set gate false;
      Thread.join slow;
      (match !slow_result with
      | Some (Ok _) -> ()
      | Some (Error e) ->
          Alcotest.failf "slow query failed: %s" (Client.error_to_string e)
      | None -> Alcotest.fail "slow query never answered");
      checkb "shed counted" true
        (M.counter_value (M.counter metrics "server.shed") >= 1);
      checki "nothing left in flight" 0
        (M.gauge_value (M.gauge metrics "server.in_flight")))

let test_deadline_timeout () =
  let config =
    { Server.default_config with on_execute = (fun () -> Thread.delay 0.08) }
  in
  with_server ~config (fun server metrics ->
      Client.with_connect ~port:(Server.port server) (fun c ->
          expect_error "timed out" P.Timed_out
            (Client.query ~deadline_ms:1 c join_plan);
          (* without a deadline the same query succeeds on the same session *)
          ignore (reply_ok "no deadline" (Client.query c join_plan)));
      checkb "timeout counted" true
        (M.counter_value (M.counter metrics "server.timeouts") >= 1))

(* {1 Malformed frames at the socket} *)

let raw_connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  fd

let test_malformed_frames_on_the_wire () =
  with_server (fun server metrics ->
      let port = Server.port server in
      let fd = raw_connect port in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          (* well-framed garbage: typed Bad_request, session survives *)
          P.write_frame fd "\x02\xde\xad\xbe\xef";
          (match P.read_frame fd with
          | Ok payload -> (
              match P.decode_response payload with
              | Ok (P.Error { code = P.Bad_request; _ }) -> ()
              | Ok _ -> Alcotest.fail "garbage did not draw Bad_request"
              | Error m -> Alcotest.failf "undecodable response: %s" m)
          | Error e -> Alcotest.failf "no response to garbage: %s" (P.read_error_to_string e));
          (* a frame claiming a future protocol version: typed response too *)
          P.write_frame fd "\x09\x05\x00\x00\x00\x00";
          (match P.read_frame fd with
          | Ok payload -> (
              match P.decode_response payload with
              | Ok (P.Error { code = P.Unsupported_version; _ }) -> ()
              | _ -> Alcotest.fail "future version not answered typedly")
          | Error e -> Alcotest.failf "no response to version probe: %s" (P.read_error_to_string e));
          (* a query on P's z attribute whose literal claims 62 bits,
             longer than any z value: a real encoded query with the
             literal's length field raised from 61 to 62 draws
             Bad_request too *)
          let z61 = Sqp_relalg.Value.Zval (Sqp_zorder.Bitstring.init 61 (fun i -> i mod 3 = 0)) in
          let frame =
            P.encode_request
              {
                P.deadline_ms = None;
                idem = None;
                request = P.Query (Wire.Select_equals ("z", z61, Wire.Scan "P"));
              }
          in
          let literal = Wire.encode Wire.write_value z61 in
          let rec find i =
            if String.sub frame i (String.length literal) = literal then i else find (i + 1)
          in
          let long = Bytes.of_string frame in
          (* tag byte, then the u32 length: its low byte is 61 *)
          Bytes.set long (find 0 + 4) '\x3e';
          P.write_frame fd (Bytes.to_string long);
          (match P.read_frame fd with
          | Ok payload -> (
              match P.decode_response payload with
              | Ok (P.Error { code = P.Bad_request; _ }) -> ()
              | _ -> Alcotest.fail "a 62-bit z literal did not draw Bad_request")
          | Error e -> Alcotest.failf "no response to a 62-bit z literal: %s" (P.read_error_to_string e));
          (* same connection still executes real queries *)
          P.write_frame fd
            (P.encode_request
               { P.deadline_ms = None; idem = None; request = P.Health });
          (match P.read_frame fd with
          | Ok payload -> (
              match P.decode_response payload with
              | Ok (P.Health_report _) -> ()
              | _ -> Alcotest.fail "health after garbage failed")
          | Error e -> Alcotest.failf "no health response: %s" (P.read_error_to_string e));
          (* an unusable length prefix ends the session — optionally after
             one parting typed error frame *)
          ignore (Unix.write fd (Bytes.of_string "\xff\xff\xff\xff") 0 4);
          (match P.read_frame fd with
          | Error (P.Eof | P.Truncated) -> ()
          | Error (P.Oversized _ | P.Stalled _) ->
              Alcotest.fail "unexpected read error after oversized prefix"
          | Ok payload -> (
              (* the parting shot must be a typed error, then EOF *)
              (match P.decode_response payload with
              | Ok (P.Error _) -> ()
              | _ -> Alcotest.fail "non-error frame after oversized prefix");
              match P.read_frame fd with
              | Error (P.Eof | P.Truncated) -> ()
              | Error _ | Ok _ ->
                  Alcotest.fail "session survived an oversized prefix")));
      checkb "bad frames counted" true
        (M.counter_value (M.counter metrics "server.bad_frames") >= 1);
      (* the server as a whole is unaffected: fresh connections serve *)
      Client.with_connect ~port (fun c -> ignore (reply_ok "health" (Client.health c))))

(* {1 Graceful drain} *)

let test_stop_drains_in_flight () =
  let gate = Atomic.make true in
  let started = Atomic.make false in
  let config =
    {
      Server.default_config with
      on_execute =
        (fun () ->
          Atomic.set started true;
          while Atomic.get gate do
            Thread.delay 0.002
          done);
    }
  in
  let metrics = M.create () in
  let server = Server.start ~config ~metrics catalog in
  let port = Server.port server in
  let slow_result = ref None in
  let slow =
    Thread.create
      (fun () ->
        Client.with_connect ~port (fun c ->
            slow_result := Some (Client.query c join_plan)))
      ()
  in
  checkb "query in flight" true (eventually (fun () -> Atomic.get started));
  let stopped = Atomic.make false in
  let stopper =
    Thread.create
      (fun () ->
        Server.stop server;
        Atomic.set stopped true)
      ()
  in
  Thread.delay 0.05;
  checkb "stop waits for the in-flight query" false (Atomic.get stopped);
  Atomic.set gate false;
  Thread.join stopper;
  Thread.join slow;
  (match !slow_result with
  | Some (Ok rows) ->
      checkb "drained query got its rows" true
        (Relation.equal_contents rows (Plan.run (Catalog.overlap_plan catalog)))
  | Some (Error e) ->
      Alcotest.failf "drained query failed: %s" (Client.error_to_string e)
  | None -> Alcotest.fail "drained query never answered");
  checki "in-flight gauge at 0 after stop" 0
    (M.gauge_value (M.gauge metrics "server.in_flight"));
  (* the listener is gone *)
  match Client.connect ~port () with
  | exception Unix.Unix_error _ -> ()
  | c ->
      (* some stacks accept briefly; the session must at least be dead —
         a typed Transport error once the retries give out *)
      (match Client.health c with
      | Ok _ -> Alcotest.fail "server still serving after stop"
      | Error _ -> ());
      Client.close c

(* {1 Exactly-once at the protocol level}

   Raw-socket checks of the dedup window: a duplicated mutation frame —
   on the same connection or a fresh one, as after a connection kill —
   is answered with the original [Ack] byte for byte and applied once;
   a key far below the window draws [Bad_request] rather than a silent
   re-apply; an expired deadline is refused without touching the table,
   and the aborted key stays usable for the real retry. *)

let request_raw fd frame =
  P.write_frame fd frame;
  match P.read_frame fd with
  | Ok payload -> payload
  | Error e -> Alcotest.failf "no response: %s" (P.read_error_to_string e)

let test_idempotent_replay () =
  with_server (fun server metrics ->
      let port = Server.port server in
      let lv = Option.get (Catalog.live catalog "L") in
      let frame seq points =
        P.encode_request
          {
            P.deadline_ms = None;
            idem = Some { P.client_id = 987_654; request_seq = seq };
            request = P.Insert { table = "L"; points };
          }
      in
      let len0 = Live.length lv in
      let fd = raw_connect port in
      let first =
        Fun.protect
          ~finally:(fun () -> Unix.close fd)
          (fun () ->
            let first = request_raw fd (frame 1 [ ([| 11; 13 |], 910_001) ]) in
            (match P.decode_response first with
            | Ok (P.Ack { applied = 1; _ }) -> ()
            | _ -> Alcotest.fail "first send not acked");
            checki "applied once" (len0 + 1) (Live.length lv);
            (* the same frame again on the same connection *)
            let again = request_raw fd (frame 1 [ ([| 11; 13 |], 910_001) ]) in
            Alcotest.(check string) "replay is byte-for-byte" first again;
            checki "not applied again" (len0 + 1) (Live.length lv);
            first)
      in
      (* the same frame on a fresh connection — the shape of a retry
         after a connection kill *)
      let fd2 = raw_connect port in
      Fun.protect
        ~finally:(fun () -> Unix.close fd2)
        (fun () ->
          let again = request_raw fd2 (frame 1 [ ([| 11; 13 |], 910_001) ]) in
          Alcotest.(check string) "replay across connections" first again;
          checki "still applied once" (len0 + 1) (Live.length lv);
          checkb "dedup hits counted" true
            (M.counter_value (M.counter metrics "server.dedup.hits") >= 2);
          (* advance far past the dedup window, then an ancient key is
             refused rather than silently re-applied *)
          (match P.decode_response (request_raw fd2 (frame 500 [])) with
          | Ok (P.Ack { applied = 0; _ }) -> ()
          | _ -> Alcotest.fail "window-advancing send not acked");
          match
            P.decode_response (request_raw fd2 (frame 2 [ ([| 11; 13 |], 910_002) ]))
          with
          | Ok (P.Error { code = P.Bad_request; _ }) -> ()
          | _ -> Alcotest.fail "ancient key not refused"))

let test_expired_deadline_no_touch () =
  let config =
    { Server.default_config with on_execute = (fun () -> Thread.delay 0.05) }
  in
  with_server ~config (fun server _ ->
      let port = Server.port server in
      let lv = Option.get (Catalog.live catalog "L") in
      let len0 = Live.length lv in
      let frame deadline_ms =
        P.encode_request
          {
            P.deadline_ms;
            idem = Some { P.client_id = 13_579; request_seq = 1 };
            request = P.Insert { table = "L"; points = [ ([| 21; 22 |], 910_100) ] };
          }
      in
      let fd = raw_connect port in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          (* the 1 ms budget is long gone once on_execute has slept *)
          (match P.decode_response (request_raw fd (frame (Some 1))) with
          | Ok (P.Error { code = P.Timed_out; _ }) -> ()
          | _ -> Alcotest.fail "expired deadline not refused");
          checki "table untouched" len0 (Live.length lv);
          (* the aborted key is fresh again: the retry without a
             deadline applies for real, exactly once *)
          match P.decode_response (request_raw fd (frame None)) with
          | Ok (P.Ack { applied = 1; _ }) ->
              checki "retry applied exactly once" (len0 + 1) (Live.length lv)
          | _ -> Alcotest.fail "retry after expiry not acked"))

(* {1 Session hygiene: aborts are counted, idle sessions are reaped} *)

let test_session_hygiene () =
  let config =
    {
      Server.default_config with
      idle_timeout_s = Some 0.25;
      frame_timeout_s = Some 1.0;
    }
  in
  with_server ~config (fun server metrics ->
      let port = Server.port server in
      let active () = M.gauge_value (M.gauge metrics "server.sessions.active") in
      (* a mid-frame disconnect is an aborted session, not a leaked thread *)
      let fd = raw_connect port in
      checkb "session registered" true (eventually (fun () -> active () = 1));
      ignore (Unix.write fd (Bytes.of_string "\x00\x00") 0 2);
      Unix.close fd;
      checkb "abort counted" true
        (eventually (fun () ->
             M.counter_value (M.counter metrics "server.sessions.aborted") >= 1));
      checkb "gauge back to 0 after abort" true
        (eventually (fun () -> active () = 0));
      (* a silent connection is reaped by the idle timeout: the server
         closes its end (we read EOF) and counts the reap *)
      let fd2 = raw_connect port in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd2 with Unix.Unix_error _ -> ())
        (fun () ->
          checkb "idle session reaped" true
            (eventually (fun () ->
                 M.counter_value (M.counter metrics "server.sessions.idle_closed")
                 >= 1));
          checkb "gauge back to 0 after reap" true
            (eventually (fun () -> active () = 0));
          match Unix.read fd2 (Bytes.create 16) 0 16 with
          | 0 -> ()
          | _ -> Alcotest.fail "idle-reaped connection still open"
          | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> ());
      (* fresh connections serve normally afterwards *)
      Client.with_connect ~port (fun c -> ignore (reply_ok "health" (Client.health c))))

(* {1 Streamed range answers}

   The server writes a range or live-range answer straight from the
   merge into a payload of exactly its size.  The oracle is the
   relation it used to build and encode, kept here: one [TInt] column
   per axis (["range"]), or the id and then the axes (["live"]), rows in
   z order, filtered to the owned z interval. *)

module Space = Sqp_zorder.Space
module Rng = Sqp_workload.Rng

let int_columns names =
  Sqp_relalg.Schema.make (List.map (fun n -> (n, Sqp_relalg.Value.TInt)) names)

let axes k = List.init k (Printf.sprintf "x%d")

let coord_rows space entries =
  let k = Space.dims space in
  Relation.make ~name:"range" (int_columns (axes k))
    (List.map
       (fun (p, _payload) -> Array.init k (fun i -> Sqp_relalg.Value.Int p.(i)))
       entries)

let live_rows space entries =
  let k = Space.dims space in
  Relation.make ~name:"live"
    (int_columns ("id" :: axes k))
    (List.map
       (fun (p, id) ->
         Array.of_list
           (Sqp_relalg.Value.Int id :: List.init k (fun i -> Sqp_relalg.Value.Int p.(i))))
       entries)

let owned_entries space owned entries =
  match owned with
  | None -> entries
  | Some (zlo, zhi) ->
      List.filter
        (fun (p, _) ->
          let z = Sqp_server.Shard_map.z_of_point space p in
          zlo <= z && z <= zhi)
        entries

(* A seeded property over three spaces: every streamed answer, with and
   without an owned interval, equals [encode_response (Rows r)] of the
   oracle relation, byte for byte.  The boxes include the whole grid,
   one occupied and one empty pixel, a box touching each grid edge, and
   random boxes large and small. *)
let test_streamed_bytes () =
  let cases = ref 0 and empty = ref 0 and nonempty = ref 0 in
  List.iter
    (fun (dims, depth) ->
      let space = Space.make ~dims ~depth in
      let side = Space.side space and zmax = (1 lsl Space.total_bits space) - 1 in
      let rng = Rng.create ~seed:((100 * dims) + depth) in
      let pixel () = Array.init dims (fun _ -> Rng.int rng side) in
      let base = List.init 240 (fun _ -> pixel ()) in
      (* every tenth point twice: runs of equal z values *)
      let points =
        List.mapi (fun i p -> (i, p)) (base @ List.filteri (fun i _ -> i mod 10 = 0) base)
      in
      let lv = Live.create ~encode:string_of_int ~decode:int_of_string space in
      ignore (Live.apply lv (List.map (fun (id, p) -> Live.Insert (p, id)) points));
      let cat = Catalog.make ~space ~points ~relations:[] () in
      let prep = Catalog.prepared_points cat in
      let random_box () =
        let a = pixel () and b = pixel () in
        Box.make ~lo:(Array.map2 min a b) ~hi:(Array.map2 max a b)
      in
      let small_box () =
        let a = pixel () in
        Box.make ~lo:a ~hi:(Array.map (fun c -> min (side - 1) (c + Rng.int rng 4)) a)
      in
      let rec empty_pixel () =
        let p = pixel () in
        if List.exists (fun (_, q) -> q = p) points then empty_pixel ()
        else Box.make ~lo:p ~hi:p
      in
      let edge a at_hi =
        let b = random_box () in
        let lo = Box.lo b and hi = Box.hi b in
        if at_hi then hi.(a) <- side - 1 else lo.(a) <- 0;
        Box.make ~lo ~hi
      in
      let p0 = snd (List.hd points) in
      let boxes =
        Box.make ~lo:(Array.make dims 0) ~hi:(Array.make dims (side - 1))
        :: Box.make ~lo:p0 ~hi:p0
        :: empty_pixel ()
        :: List.concat (List.init dims (fun a -> [ edge a false; edge a true ]))
        @ List.init 80 (fun _ -> random_box ())
        @ List.init 80 (fun _ -> small_box ())
      in
      let random_owned () =
        match Rng.int rng 4 with
        | 0 -> Some (1, 0)
        | 1 -> Some (0, zmax)
        | _ ->
            let a = Rng.int rng (zmax + 1) and b = Rng.int rng (zmax + 1) in
            Some (min a b, max a b)
      in
      List.iter
        (fun box ->
          List.iter
            (fun owned ->
              incr cases;
              let what kind =
                Format.asprintf "%d-d depth %d, %s answer for %a, owned %s" dims depth
                  kind Box.pp box
                  (match owned with
                  | None -> "everything"
                  | Some (zlo, zhi) -> Printf.sprintf "[%d, %d]" zlo zhi)
              in
              let ranged = owned_entries space owned (fst (Sqp_core.Range_search.search_skip prep box)) in
              if ranged = [] then incr empty else incr nonempty;
              Alcotest.(check string) (what "range")
                (P.encode_response (P.Rows (coord_rows space ranged)))
                (Server.range_answer ?owned cat box);
              let lived =
                owned_entries space owned (fst (Live.range_search (Live.snapshot lv) box))
              in
              Alcotest.(check string) (what "live")
                (P.encode_response (P.Rows (live_rows space lived)))
                (Server.live_answer ?owned lv box))
            [ None; random_owned () ])
        boxes)
    [ (1, 16); (2, 10); (3, 7) ];
  checkb "at least 500 cases" true (!cases >= 500);
  checkb "empty and non-empty answers both covered" true (!empty > 0 && !nonempty > 0)

let hex s =
  String.concat "" (List.init (String.length s) (fun i -> Printf.sprintf "%02x" (Char.code s.[i])))

(* The bytes a server sends for one small range answer and one small
   live-range answer (four rows each), as recorded before the answers
   were streamed. *)
let test_recorded_bytes () =
  let server = Server.start ~metrics:(M.create ()) (Catalog.of_seeded wk) in
  Fun.protect
    ~finally:(fun () -> Server.stop server)
    (fun () ->
      let fd = raw_connect (Server.port server) in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          let ask request =
            P.write_frame fd (P.encode_request { P.deadline_ms = None; idem = None; request });
            match P.read_frame fd with
            | Ok payload -> hex payload
            | Error e -> Alcotest.failf "no answer: %s" (P.read_error_to_string e)
          in
          let lo = [| 700; 40 |] and hi = [| 760; 80 |] in
          Alcotest.(check string) "range answer"
            ("02010000000572616e67650000000200000002783000000000027831000000000401"
           ^ "00000000000002c00100000000000000280100000000000002c5010000000000000029"
           ^ "0100000000000002c70100000000000000430100000000000002cd01000000000000004c")
            (ask (P.Range_search { lo; hi }));
          Alcotest.(check string) "live answer"
            ("0201000000046c69766500000003000000026964000000000278300000000002783100"
           ^ "000000040100000000000000920100000000000002c00100000000000000280100000000"
           ^ "000001020100000000000002c50100000000000000290100000000000001520100000000"
           ^ "000002c70100000000000000430100000000000000c50100000000000002cd01000000"
           ^ "000000004c")
            (ask (P.Live_range { table = "L"; lo; hi }))))

(* One bounds check for both range reads: a box past the grid is
   [Bad_request] with the same message for [Range_search] and
   [Live_range] (which used to clip it), and the session serves on. *)
let test_out_of_grid () =
  with_server (fun server _ ->
      Client.with_connect ~port:(Server.port server) (fun c ->
          let lo = [| 1000; 1000 |] and hi = [| 2000; 2000 |] in
          let refusal what = function
            | Error (Client.Remote { code; message }) -> (P.error_code_name code, message)
            | Ok _ -> Alcotest.failf "%s: an out-of-grid box was answered" what
            | Error e -> Alcotest.failf "%s: %s" what (Client.error_to_string e)
          in
          let expected = ("bad_request", "range bounds outside the 1024x1024 grid") in
          let pair = Alcotest.(pair string string) in
          Alcotest.check pair "live range" expected
            (refusal "live range" (Client.live_range c ~table:"L" ~lo ~hi));
          Alcotest.check pair "range" expected
            (refusal "range" (Client.range_search c ~lo ~hi));
          let h = reply_ok "health after the refusals" (Client.health c) in
          checkb "still serving" true h.P.healthy))

(* {1 One tree under every served read}

   The catalog's points and ["L"] start as one bulk-built tree, with
   leaves of 20 entries: L's writes path-copy away from it, so no write
   reaches a range answer, and each served read counts the leaves it
   read. *)

let ask fd request =
  P.write_frame fd (P.encode_request { P.deadline_ms = None; idem = None; request });
  match P.read_frame fd with
  | Ok payload -> payload
  | Error e -> Alcotest.failf "no answer: %s" (P.read_error_to_string e)

let test_points_stay_frozen () =
  let server = Server.start ~metrics:(M.create ()) (Catalog.of_seeded wk) in
  Fun.protect
    ~finally:(fun () -> Server.stop server)
    (fun () ->
      let fd = raw_connect (Server.port server) in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          let lo = [| 700; 40 |] and hi = [| 760; 80 |] in
          let range () = ask fd (P.Range_search { lo; hi }) in
          let live_ids () =
            match P.decode_response (ask fd (P.Live_range { table = "L"; lo; hi })) with
            | Ok (P.Rows r) ->
                List.map (fun tu -> Sqp_relalg.Value.to_int tu.(0)) (Relation.tuples r)
            | _ -> Alcotest.fail "live range: no rows"
          in
          let applied request =
            match P.decode_response (ask fd request) with
            | Ok (P.Ack { applied; _ }) -> applied
            | _ -> Alcotest.fail "mutation: no ack"
          in
          let range0 = range () and ids0 = live_ids () in
          checki "insert applied" 1
            (applied (P.Insert { table = "L"; points = [ ([| 730; 60 |], 999_999) ] }));
          checkb "the live range shows the insert" true
            (List.sort compare (999_999 :: ids0) = List.sort compare (live_ids ()));
          Alcotest.(check string) "range answer after the insert" range0 (range ());
          checki "delete applied" 1
            (applied (P.Delete { table = "L"; points = [ [| 704; 40 |] ] }));
          checki "the live range shows the delete" (List.length ids0)
            (List.length (live_ids ()));
          ignore (applied (P.Create_index { table = "L" }));
          Alcotest.(check string) "range answer after delete and create_index" range0
            (range ())))

(* After one served range the standard serving catalog holds its
   points twice, the boxed ["P"] relation and one tree shared with
   ["L"]: nothing else is built for the range. *)
let test_catalog_words () =
  let std = Sqp_workload.Seeded.standard () in
  let cat = Catalog.of_seeded std in
  ignore (Server.range_answer cat std.Sqp_workload.Seeded.query);
  let words = Obj.reachable_words (Obj.repr cat) in
  if words > 165_000 then
    Alcotest.failf "the standard catalog reaches %d words (more than 165,000)" words

(* Words one call allocates: the minor words (exact in native code)
   plus the words allocated straight into the major heap (major minus
   promoted), so a large array cannot hide there.  [Gc.counters]' own
   minor count is not used: on OCaml 5.1 it drifts by whole minor heaps
   from one call to the next. *)
let words_allocated f =
  let minor0 = Gc.minor_words () in
  let _, promoted0, major0 = Gc.counters () in
  let r = f () in
  let minor1 = Gc.minor_words () in
  let _, promoted1, major1 = Gc.counters () in
  (r, int_of_float (minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0)))

(* What [sqp serve] builds before its port line, in words allocated:
   the standard workload and its catalog under 450,000 (1,217,906 when
   they were built through boxed detours), and the first of two even
   shard slices under 350,000 (815,071 then). *)
let test_startup_allocation () =
  let (std, _), words =
    words_allocated (fun () ->
        let std = Sqp_workload.Seeded.standard () in
        (std, Catalog.of_seeded std))
  in
  if words > 450_000 then
    Alcotest.failf "the standard workload and catalog allocate %d words (more than 450,000)"
      words;
  let shard = List.hd (Sqp_server.Shard_map.even_ranges std.Sqp_workload.Seeded.space 2) in
  let _, words = words_allocated (fun () -> Catalog.of_seeded ~shard std) in
  if words > 350_000 then
    Alcotest.failf "the first of two shard catalogs allocates %d words (more than 350,000)"
      words

(* A fresh catalog already holds all it serves from: no structure is
   left to build after the port line. *)
let test_fresh_catalog_words () =
  let cat = Catalog.of_seeded (Sqp_workload.Seeded.standard ()) in
  let words = Obj.reachable_words (Obj.repr cat) in
  if words > 161_045 then
    Alcotest.failf "a fresh standard catalog reaches %d words (more than 161,045)" words

(* Section 5.3.2's unit on the standard points: 5,000 points at 20 a
   leaf are 250 pages, the whole grid reads every one of them, and the
   400 standard boxes read 4,317 pages for their 29,985 rows.  The
   server observes the same count per request. *)
let test_range_pages () =
  let std = Sqp_workload.Seeded.standard () in
  let cat = Catalog.of_seeded std in
  let tree = Catalog.point_tree cat in
  let side = Space.side (Catalog.space cat) in
  let lo = [| 0; 0 |] and hi = [| side - 1; side - 1 |] in
  let whole = Live.range_iter tree (Box.make ~lo ~hi) ignore in
  checki "whole grid: every page" 250 whole.Live.pages;
  let rows, pages =
    Array.fold_left
      (fun (rows, pages) box ->
        let s = Live.range_iter tree box ignore in
        (rows + s.Live.results, pages + s.Live.pages))
      (0, 0) std.Sqp_workload.Seeded.query_boxes
  in
  checki "standard boxes: rows" 29_985 rows;
  checki "standard boxes: pages" 4_317 pages;
  let metrics = M.create () in
  let server = Server.start ~metrics cat in
  Fun.protect
    ~finally:(fun () -> Server.stop server)
    (fun () ->
      Client.with_connect ~port:(Server.port server) (fun c ->
          ignore (reply_ok "whole grid" (Client.range_search c ~lo ~hi));
          ignore (reply_ok "whole grid, live" (Client.live_range c ~table:"L" ~lo ~hi))));
  Alcotest.(check (pair int int)) "server.range.pages: two reads of 250" (2, 500)
    (pages_observed metrics)

(* {1 The range plan differential}

   On the standard workload's query box and its first 20 query boxes,
   [Catalog.range_plan] (the Section 4 plan, these tests' oracle for
   served ranges), the skip merge every server runs and a linear scan
   return the same rows, and [range_access] names the skip merge.  Both
   refuse a box reaching past the grid. *)

let test_range_plan_differential () =
  let std = Sqp_workload.Seeded.standard () in
  let cat = Catalog.of_seeded std in
  let prep = Catalog.prepared_points cat in
  let linear = Sqp_kdtree.Linear_scan.build (Sqp_workload.Seeded.tagged_points std) in
  let sorted_points entries =
    List.sort compare (List.map (fun (p, _) -> Array.to_list p) entries)
  in
  List.iter
    (fun b ->
      let plan = Plan.run (Catalog.range_plan cat ~lo:(Box.lo b) ~hi:(Box.hi b)) in
      let plan_points =
        List.sort compare
          (List.map
             (fun tu -> Array.to_list (Array.map Sqp_relalg.Value.to_int tu))
             (Relation.tuples plan))
      in
      let skip = fst (Sqp_core.Range_search.search_skip prep b) in
      let scan = fst (Sqp_kdtree.Linear_scan.range_search linear b) in
      checkb "plan rows = skip-merge rows" true (plan_points = sorted_points skip);
      checkb "skip-merge rows = linear-scan rows" true
        (sorted_points skip = sorted_points scan);
      checkb "range_access names the skip merge" true
        (Catalog.range_access cat ~lo:(Box.lo b) ~hi:(Box.hi b)
        = Catalog.Direct { Sqp_optimizer.Cost.method_ = Sqp_optimizer.Cost.Skip }))
    (std.Sqp_workload.Seeded.query
    :: Array.to_list (Array.sub std.Sqp_workload.Seeded.query_boxes 0 20));
  let lo = [| 0; 0 |] and hi = [| Space.side (Catalog.space cat); 0 |] in
  List.iter
    (fun (what, f) ->
      match f () with
      | () -> Alcotest.failf "%s accepted an out-of-grid box" what
      | exception Invalid_argument _ -> ())
    [
      ("range_access", fun () -> ignore (Catalog.range_access cat ~lo ~hi));
      ("range_plan", fun () -> ignore (Catalog.range_plan cat ~lo ~hi));
    ]

(* {1 The analyze flow: tag 10 changes nothing}

   The server keeps no statistics.  A [Refresh_stats] frame (tag 10, the
   old ANALYZE request, which the serving benchmark's set-up still
   sends) answers [Ok] and leaves every later answer byte-identical; no
   EXPLAIN carries a cost column and no EXPLAIN ANALYZE a
   predicted-vs-actual table. *)

(* EXPLAIN ANALYZE text with every "N.NNN ms" timing blanked. *)
let untimed text =
  let rec blank = function
    | w :: (unit :: _ as rest)
      when String.starts_with ~prefix:"ms" unit && Float.of_string_opt w <> None ->
        "_" :: blank rest
    | w :: rest -> w :: blank rest
    | [] -> []
  in
  String.concat " " (blank (String.split_on_char ' ' text))

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let test_tag_10 () =
  with_server (fun server _ ->
      Client.with_connect ~port:(Server.port server) (fun client ->
          let box = wk.Sqp_workload.Seeded.query in
          let answers () =
            let bytes what request =
              P.encode_response (reply_ok what (Client.call client request))
            in
            let explain = reply_ok "explain" (Client.explain client join_plan) in
            let rendered, rows = reply_ok "analyze" (Client.analyze client join_plan) in
            checkb "no cost column" false (contains explain "[cost=");
            checkb "no predicted-vs-actual table" false (contains rendered "predicted");
            [
              bytes "range" (P.Range_search { lo = Box.lo box; hi = Box.hi box });
              bytes "join" (P.Query join_plan);
              explain;
              untimed rendered;
              P.encode_response (P.Rows rows);
            ]
          in
          (* the first round warms the stored relations' buffer pools, so
             EXPLAIN ANALYZE's page counts repeat *)
          ignore (answers ());
          let before = answers () in
          ignore (reply_ok "tag 10" (Client.refresh_stats client));
          Alcotest.(check (list string)) "answers byte-identical after tag 10" before
            (answers ());
          (* a live range after an online rebuild answers the same rows *)
          let llo = [| 0; 0 |] and lhi = [| 400; 400 |] in
          let live_before =
            reply_ok "live range" (Client.live_range client ~table:"L" ~lo:llo ~hi:lhi)
          in
          let _applied, _seq =
            reply_ok "create index" (Client.create_index client ~table:"L")
          in
          let live_rebuilt =
            reply_ok "live range after the rebuild"
              (Client.live_range client ~table:"L" ~lo:llo ~hi:lhi)
          in
          checkb "the rebuilt index returns the same rows" true
            (Relation.equal_contents live_before live_rebuilt);
          (* an insert after the rebuild: the new point must appear *)
          let applied, _seq =
            reply_ok "insert after index"
              (Client.insert client ~table:"L" [ ([| 3; 3 |], 999_001) ])
          in
          checki "insert applied" 1 applied;
          let live_fresh =
            reply_ok "live range after insert"
              (Client.live_range client ~table:"L" ~lo:llo ~hi:lhi)
          in
          checki "new row visible"
            (Relation.cardinality live_rebuilt + 1)
            (Relation.cardinality live_fresh)))

let () =
  Alcotest.run "server"
    [
      ( "fidelity",
        [
          Alcotest.test_case "concurrent differential" `Quick
            test_concurrent_differential;
          Alcotest.test_case "explain and analyze" `Quick test_explain_and_analyze;
          Alcotest.test_case "live ingest" `Quick test_live_ingest;
          Alcotest.test_case "statistics-free ranges on the skip kernel" `Quick
            test_range_one_path;
          Alcotest.test_case "first range of a fresh catalog from two domains" `Quick
            test_concurrent_first_range;
        ] );
      ( "errors",
        [
          Alcotest.test_case "catalog errors" `Quick test_catalog_errors;
          Alcotest.test_case "malformed frames" `Quick
            test_malformed_frames_on_the_wire;
        ] );
      ( "backpressure",
        [
          Alcotest.test_case "overload sheds" `Quick test_overload_sheds;
          Alcotest.test_case "deadline timeout" `Quick test_deadline_timeout;
        ] );
      ( "lifecycle",
        [ Alcotest.test_case "stop drains" `Quick test_stop_drains_in_flight ] );
      ( "exactly-once",
        [
          Alcotest.test_case "idempotent replay" `Quick test_idempotent_replay;
          Alcotest.test_case "expired deadline" `Quick
            test_expired_deadline_no_touch;
        ] );
      ( "sessions",
        [ Alcotest.test_case "session hygiene" `Quick test_session_hygiene ] );
      ( "streaming",
        [
          Alcotest.test_case "byte-identical to the encoded relation" `Quick
            test_streamed_bytes;
          Alcotest.test_case "recorded bytes" `Quick test_recorded_bytes;
          Alcotest.test_case "out-of-grid ranges draw Bad_request" `Quick
            test_out_of_grid;
        ] );
      ( "one tree",
        [
          Alcotest.test_case "range answers ignore L's writes" `Quick
            test_points_stay_frozen;
          Alcotest.test_case "catalog words after one range" `Quick test_catalog_words;
          Alcotest.test_case "start-up allocation" `Quick test_startup_allocation;
          Alcotest.test_case "fresh catalog words" `Quick test_fresh_catalog_words;
          Alcotest.test_case "pages per range" `Quick test_range_pages;
        ] );
      ( "range",
        [ Alcotest.test_case "differential" `Quick test_range_plan_differential ] );
      ( "statistics",
        [ Alcotest.test_case "analyze flow" `Quick test_tag_10 ] );
    ]
