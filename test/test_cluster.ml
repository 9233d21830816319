(* Cluster differential suite.

   The heart: a router fronting 1, 2 and 4 in-process shard servers —
   each serving the z-range-restricted slice of the same seeded
   workload — must be bit-identical to a single full server, for range
   searches (rows AND their global z order), live-table snapshot
   reads, and the spatial join whose element pairs straddle the shard
   cuts (boundary replication + distinct merge).  Around that: plans
   the scatter-gather cannot answer exactly draw Bad_request; the
   router survives deterministic shard-connection kills; a seeded
   mixed workload through a faulty client wire stays exactly-once end
   to end (client → router → owning shard); an operator's map push
   fences off every sender still routing under the old epoch — a raw
   forward, a map-caching client and the router itself — and each
   recovers to exact answers; and a real [sqp serve] child process
   reports its port
   machine-parseably and exits 0 on SIGTERM, as [sqp serve] and [sqp
   route --spawn 1] still do once their stdout reader has gone.

   Seeds come from SQP_CLUSTER_SEEDS (comma-separated) when set. *)

module P = Sqp_server.Protocol
module Client = Sqp_server.Client
module Server = Sqp_server.Server
module Catalog = Sqp_server.Catalog
module SM = Sqp_server.Shard_map
module Faulty_net = Sqp_server.Faulty_net
module Router = Sqp_cluster.Router
module CC = Sqp_cluster.Cluster_client
module Wire = Sqp_relalg.Wire
module Relation = Sqp_relalg.Relation
module Value = Sqp_relalg.Value
module Live = Sqp_btree.Live
module Space = Sqp_zorder.Space
module Box = Sqp_geom.Box
module M = Sqp_obs.Metrics
module WG = Workload_gen

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let seeds =
  match Sys.getenv_opt "SQP_CLUSTER_SEEDS" with
  | None | Some "" -> [ 3; 11 ]
  | Some s -> (
      match String.split_on_char ',' s |> List.filter_map int_of_string_opt with
      | [] -> [ 3; 11 ]
      | l -> l)

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

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* Tuple comparisons via the total {!Value.compare} order, never
   polymorphic compare (Zval is abstract). *)
let tuple_cmp a b =
  let la = Array.length a and lb = Array.length b in
  let rec go i =
    if i >= la || i >= lb then compare la lb
    else
      let c = Value.compare a.(i) b.(i) in
      if c <> 0 then c else go (i + 1)
  in
  go 0

let tuple_eq a b = tuple_cmp a b = 0

(* Rows identical, including order — the router must preserve the
   oracle's global z order for range reads. *)
let rows_identical a b =
  List.equal tuple_eq (Relation.tuples a) (Relation.tuples b)

(* Rows identical as sets — for distinct-rooted plan results, whose
   single-node order is plan order while the router's is canonical. *)
let rows_same_set a b =
  List.equal tuple_eq
    (List.sort_uniq tuple_cmp (Relation.tuples a))
    (List.sort_uniq tuple_cmp (Relation.tuples b))

(* {1 The seeded fixture and its single-node oracle} *)

let wk =
  Sqp_workload.Seeded.standard ~n_points:400 ~n_objects:12 ~n_query_boxes:24 ()

let space = wk.Sqp_workload.Seeded.space
let side = Sqp_workload.Seeded.side wk
let full_lo = [| 0; 0 |]
let full_hi = [| side - 1; side - 1 |]

let join_plan =
  Wire.(
    Project
      ( [ "rid"; "sid" ],
        Spatial_join { zl = "zr"; zr = "zs"; left = Scan "R"; right = Scan "S" } ))

let n_boxes = 12

(* Oracle answers, computed once against one full (unsharded) server
   over the same seeds. *)
let oracle =
  lazy
    (let server = Server.start ~metrics:(M.create ()) (Catalog.of_seeded wk) in
     Fun.protect
       ~finally:(fun () -> Server.stop server)
       (fun () ->
         Client.with_connect ~port:(Server.port server) (fun cl ->
             let ranges =
               List.init n_boxes (fun i ->
                   let b = wk.Sqp_workload.Seeded.query_boxes.(i) in
                   ( b,
                     reply_ok "oracle range"
                       (Client.range_search cl ~lo:(Box.lo b) ~hi:(Box.hi b)) ))
             in
             let join = reply_ok "oracle join" (Client.query cl join_plan) in
             let live =
               reply_ok "oracle live"
                 (Client.live_range cl ~table:"L" ~lo:full_lo ~hi:full_hi)
             in
             (ranges, join, live))))

(* [n] shard servers, each built locally from the seeds restricted to
   its even z range, fronted by a router holding the matching map. *)
let with_seeded_cluster ?(config = Router.default_config) n f =
  let shards =
    List.map
      (fun r -> Server.start ~metrics:(M.create ()) (Catalog.of_seeded ~shard:r wk))
      (SM.even_ranges space n)
  in
  Fun.protect
    ~finally:(fun () -> List.iter Server.stop shards)
    (fun () ->
      let endpoints = List.map (fun s -> ("127.0.0.1", Server.port s)) shards in
      let metrics = M.create () in
      let router =
        Router.start ~config ~metrics ~space ~map:(SM.even space endpoints) ()
      in
      Fun.protect
        ~finally:(fun () -> Router.stop router)
        (fun () -> f router metrics))

(* {1 Scatter-gather fidelity at every shard count} *)

let differential_at n =
  let ranges, join, live = Lazy.force oracle in
  with_seeded_cluster n (fun router _metrics ->
      Client.with_connect ~port:(Router.port router) (fun cl ->
          List.iteri
            (fun i (b, expect) ->
              let got =
                reply_ok
                  (Printf.sprintf "%d shards: box %d" n i)
                  (Client.range_search cl ~lo:(Box.lo b) ~hi:(Box.hi b))
              in
              checkb
                (Printf.sprintf
                   "%d shards: box %d rows identical and z-ordered" n i)
                true (rows_identical expect got))
            ranges;
          let got_live =
            reply_ok
              (Printf.sprintf "%d shards: live scan" n)
              (Client.live_range cl ~table:"L" ~lo:full_lo ~hi:full_hi)
          in
          checkb
            (Printf.sprintf "%d shards: live snapshot identical" n)
            true (rows_identical live got_live);
          let got_join =
            reply_ok (Printf.sprintf "%d shards: join" n)
              (Client.query cl join_plan)
          in
          checkb
            (Printf.sprintf "%d shards: join pairs across the cuts" n)
            true (rows_same_set join got_join);
          (* EXPLAIN ANALYZE through the router stitches the per-shard
             breakdown while returning the same result set *)
          let text, rows =
            reply_ok
              (Printf.sprintf "%d shards: analyze" n)
              (Client.analyze cl join_plan)
          in
          checkb
            (Printf.sprintf "%d shards: analyze rows = query rows" n)
            true (rows_same_set join rows);
          checkb
            (Printf.sprintf "%d shards: analyze names every shard" n)
            true
            (contains text "cluster: epoch"
            && contains text (Printf.sprintf "shard %d" (n - 1)));
          let explain =
            reply_ok
              (Printf.sprintf "%d shards: explain" n)
              (Client.explain cl join_plan)
          in
          checkb
            (Printf.sprintf "%d shards: explain is cluster-prefixed" n)
            true
            (contains explain "cluster: epoch")))

let test_differential () = List.iter differential_at [ 1; 2; 4 ]

(* {1 Plans the scatter-gather cannot answer exactly} *)

let test_plan_rejection () =
  with_seeded_cluster 2 (fun router _ ->
      Client.with_connect ~port:(Router.port router) (fun cl ->
          (* root is not the duplicate-eliminating Project *)
          expect_error "root Scan" P.Bad_request (Client.query cl (Wire.Scan "R"));
          expect_error "root Sort" P.Bad_request
            (Client.query cl (Wire.Sort ([ "rid" ], join_plan)));
          (* Product needs cross-shard pairs no shard can see *)
          expect_error "product" P.Bad_request
            (Client.query cl
               (Wire.Project
                  ([ "rid"; "sid" ], Wire.Product (Wire.Scan "R", Wire.Scan "S"))));
          (* but the distinct-rooted join still works on the same session *)
          let rows = reply_ok "join after rejects" (Client.query cl join_plan) in
          let _, join, _ = Lazy.force oracle in
          checkb "session survives rejects" true (rows_same_set join rows)))

(* {1 Tag 10 through the router}

   The servers keep no statistics.  A [Refresh_stats] frame (tag 10)
   broadcast through the router answers [Ok], and the range and join
   answers after it are the single server's. *)

let test_refresh_stats () =
  let ranges, join, _ = Lazy.force oracle in
  with_seeded_cluster 2 (fun router _ ->
      Client.with_connect ~port:(Router.port router) (fun cl ->
          ignore (reply_ok "tag 10 through the router" (Client.refresh_stats cl));
          List.iteri
            (fun i (b, expect) ->
              let got =
                reply_ok
                  (Printf.sprintf "box %d after tag 10" i)
                  (Client.range_search cl ~lo:(Box.lo b) ~hi:(Box.hi b))
              in
              checkb
                (Printf.sprintf "box %d rows identical after tag 10" i)
                true (rows_identical expect got))
            ranges;
          checkb "join pairs unchanged by tag 10" true
            (rows_same_set join (reply_ok "join after tag 10" (Client.query cl join_plan)))))

(* {1 One bounds check for range reads}

   A box past the grid draws the same [Bad_request], message and all,
   from the router as from a single server, for [Live_range] as for
   [Range_search]; the router refuses it before any fan-out, and the
   session serves on. *)

let test_out_of_grid () =
  let lo = [| 1000; 1000 |] and hi = [| 2000; 2000 |] in
  let refusal what = function
    | Error (Client.Remote { code; message }) -> (P.error_code_name code, message)
    | Ok _ -> Alcotest.failf "%s: an out-of-grid box was answered" what
    | Error e -> Alcotest.failf "%s: %s" what (Client.error_to_string e)
  in
  let refusals cl =
    [
      refusal "live range" (Client.live_range cl ~table:"L" ~lo ~hi);
      refusal "range" (Client.range_search cl ~lo ~hi);
    ]
  in
  let direct =
    let server = Server.start ~metrics:(M.create ()) (Catalog.of_seeded wk) in
    Fun.protect
      ~finally:(fun () -> Server.stop server)
      (fun () -> Client.with_connect ~port:(Server.port server) refusals)
  in
  List.iter
    (fun (code, _) -> Alcotest.(check string) "single server" "bad_request" code)
    direct;
  with_seeded_cluster 2 (fun router metrics ->
      Client.with_connect ~port:(Router.port router) (fun cl ->
          Alcotest.(check (list (pair string string)))
            "router: same codes and messages" direct (refusals cl);
          let fanouts () =
            match List.assoc_opt "cluster.fanout" (M.snapshot metrics) with
            | Some (M.Histogram_v { count; _ }) -> count
            | _ -> 0
          in
          checki "refused before any fan-out" 0 (fanouts ());
          let ranges, _, _ = Lazy.force oracle in
          let b, expect = List.hd ranges in
          let got =
            reply_ok "range after the refusals"
              (Client.range_search cl ~lo:(Box.lo b) ~hi:(Box.hi b))
          in
          checkb "session serves on" true (rows_identical expect got);
          checki "one fan-out for one range" 1 (fanouts ())))

(* {1 Shard-connection kills}

   Every router→shard connection dies at its 25th socket operation; the
   router's bounded per-shard retries (fresh connections from the pool)
   must keep every answer exact. *)

let test_shard_kills () =
  let config =
    {
      Router.default_config with
      shard_wrap = Some (Faulty_net.wrap (Faulty_net.kill_after 25));
      shard_attempts = 8;
    }
  in
  let ranges, join, _ = Lazy.force oracle in
  with_seeded_cluster ~config 2 (fun router _ ->
      Client.with_connect ~port:(Router.port router) (fun cl ->
          List.iteri
            (fun i (b, expect) ->
              let got =
                reply_ok
                  (Printf.sprintf "kills: box %d" i)
                  (Client.range_search cl ~lo:(Box.lo b) ~hi:(Box.hi b))
              in
              checkb
                (Printf.sprintf "kills: box %d exact" i)
                true (rows_identical expect got))
            ranges;
          let got_join = reply_ok "kills: join" (Client.query cl join_plan) in
          checkb "kills: join exact" true (rows_same_set join got_join);
          let h = reply_ok "kills: health" (Client.health cl) in
          checkb "kills: healthy" true h.P.healthy))

(* {1 Exactly-once mixed ingest through the router}

   The shared seeded mixed-op schedule, replayed by one client whose
   wire to the {e router} suffers seeded faults.  The router forwards
   each mutation with the origin client's idempotency key, so a client
   retry that re-reaches the owning shard must dedup there: every acked
   applied count must match the in-memory oracle, every read its
   cardinality, and the final cluster-wide scan its contents in z
   order, bit for bit. *)

let small_space = Space.make ~dims:2 ~depth:6
let small_side = 64

let with_small_cluster n f =
  let lives =
    List.init n (fun _ ->
        Live.create ~encode:string_of_int ~decode:int_of_string small_space)
  in
  let shards =
    List.map
      (fun lv ->
        Server.start ~metrics:(M.create ())
          (Catalog.make ~lives:[ ("L", lv) ] ~space:small_space ~points:[]
             ~relations:[] ()))
      lives
  in
  Fun.protect
    ~finally:(fun () -> List.iter Server.stop shards)
    (fun () ->
      let endpoints = List.map (fun s -> ("127.0.0.1", Server.port s)) shards in
      let router =
        Router.start ~metrics:(M.create ()) ~space:small_space
          ~map:(SM.even small_space endpoints)
          ()
      in
      Fun.protect
        ~finally:(fun () -> Router.stop router)
        (fun () -> f router lives))

let small_full_lo = [| 0; 0 |]
let small_full_hi = [| small_side - 1; small_side - 1 |]

(* Expected live rows (id, x0, x1) for an oracle scan, in its z order. *)
let rows_of_entries entries =
  List.map
    (fun (p, v) -> [| Value.Int v; Value.Int p.(0); Value.Int p.(1) |])
    entries

let workload_seed seed =
  with_small_cluster 2 (fun router _lives ->
      let ops = WG.generate ~side:small_side ~dims:2 ~seed ~n:120 () in
      let oracle = WG.Oracle.create small_space in
      let plan =
        Faulty_net.seeded ~p_eintr:0.05 ~p_short:0.3 ~p_delay:0.03
          ~delay_s:0.0003 ~p_reset:0.08 ~seed:(seed * 131) ()
      in
      let retries = ref 0 in
      Client.with_connect
        ~port:(Router.port router)
        ~client_id:(seed * 37) ~max_attempts:400 ~wrap:(Faulty_net.wrap plan)
        (fun cl ->
          List.iteri
            (fun i op ->
              let ok what = function
                | Ok v -> v
                | Error e ->
                    Alcotest.failf "seed %d op %d: %s: %s" seed i what
                      (Client.error_to_string e)
              in
              match op with
              | WG.Insert (p, v) ->
                  let applied, _ =
                    ok "insert" (Client.insert cl ~table:"L" [ (p, v) ])
                  in
                  WG.Oracle.insert oracle p v;
                  if applied <> 1 then
                    Alcotest.failf "seed %d op %d: insert applied %d" seed i
                      applied
              | WG.Delete p ->
                  let applied, _ =
                    ok "delete" (Client.delete cl ~table:"L" [ p ])
                  in
                  let expected = if WG.Oracle.delete oracle p then 1 else 0 in
                  if applied <> expected then
                    Alcotest.failf "seed %d op %d: delete applied %d, oracle %d"
                      seed i applied expected
              | WG.Range box ->
                  let rows =
                    ok "range"
                      (Client.live_range cl ~table:"L" ~lo:(Box.lo box)
                         ~hi:(Box.hi box))
                  in
                  let expected = List.length (WG.Oracle.range oracle box) in
                  if Relation.cardinality rows <> expected then
                    Alcotest.failf "seed %d op %d: range %d rows, oracle %d"
                      seed i (Relation.cardinality rows) expected
              | WG.Scan ->
                  let rows =
                    ok "scan"
                      (Client.live_range cl ~table:"L" ~lo:small_full_lo
                         ~hi:small_full_hi)
                  in
                  if Relation.cardinality rows <> WG.Oracle.length oracle then
                    Alcotest.failf "seed %d op %d: scan %d rows, oracle %d"
                      seed i (Relation.cardinality rows)
                      (WG.Oracle.length oracle))
            ops;
          retries := Client.retries cl;
          (* final cluster-wide state: contents and z order, bit for bit *)
          let got =
            reply_ok "final scan"
              (Client.live_range cl ~table:"L" ~lo:small_full_lo
                 ~hi:small_full_hi)
          in
          let expected = rows_of_entries (WG.Oracle.scan oracle) in
          checkb
            (Printf.sprintf
               "seed %d: final cluster state = oracle (%d wire retries)" seed
               !retries)
            true
            (List.equal tuple_eq expected (Relation.tuples got))))

let test_workload_differential () = List.iter workload_seed seeds

(* {1 Epoch fencing}

   The map changes only when an operator pushes one.  On two shards:
   epoch 2, with the same entries, pushed through the router's
   [Shard_map_set] frame, reaches both shards, so a [Forward] stamped
   with epoch 1 draws [Stale_epoch], and a {!Cluster_client} that cached
   epoch 1 refetches once and answers exactly.  Epoch 3, pushed straight
   to the shards, fences off the router itself: its next range read
   resyncs, answers exactly, and leaves the router at epoch 3. *)

(* The points of [wk] inside [box], as range rows in z order. *)
let linear_rows box =
  let scan = Sqp_kdtree.Linear_scan.build (Sqp_workload.Seeded.tagged_points wk) in
  List.map
    (fun (p, _) -> Array.to_list p)
    (List.stable_sort
       (fun (a, _) (b, _) ->
         compare (Sqp_zorder.Interleave.rank space a) (Sqp_zorder.Interleave.rank space b))
       (fst (Sqp_kdtree.Linear_scan.range_search scan box)))

let int_rows rel =
  List.map
    (fun tu -> Array.to_list (Array.map Value.to_int tu))
    (Relation.tuples rel)

let test_fencing () =
  let expected = linear_rows (Box.make ~lo:full_lo ~hi:full_hi) in
  with_seeded_cluster 2 (fun router metrics ->
      let m1 = Router.map router in
      checki "bring-up epoch" 1 m1.SM.epoch;
      let cc = CC.connect ~router_port:(Router.port router) () in
      Fun.protect
        ~finally:(fun () -> CC.close cc)
        (fun () ->
          checki "client caches epoch 1" 1 (CC.epoch cc);
          Client.with_connect ~port:(Router.port router) (fun cl ->
              let m2 = SM.make ~epoch:2 m1.SM.entries in
              let _, epoch =
                reply_ok "epoch 2 through the router"
                  (Client.shard_map_set cl ~map:m2 ~self:(-1))
              in
              checki "router acks epoch 2" 2 epoch;
              checki "router holds epoch 2" 2 (Router.map router).SM.epoch;
              let payload =
                P.encode_request
                  {
                    P.deadline_ms = None;
                    idem = None;
                    request = P.Range_search { lo = full_lo; hi = full_hi };
                  }
              in
              List.iter
                (fun (e : SM.entry) ->
                  Client.with_connect ~port:e.SM.port (fun sc ->
                      expect_error "a forward stamped with epoch 1" P.Stale_epoch
                        (Client.forward sc ~epoch:1 ~payload)))
                m1.SM.entries;
              let got =
                reply_ok "cached client after the push"
                  (CC.range_search cc ~space ~lo:full_lo ~hi:full_hi)
              in
              checki "one refetch" 1 (CC.refetches cc);
              checki "client caught up to epoch 2" 2 (CC.epoch cc);
              checkb "cached client rows = linear scan, z-ordered" true
                (int_rows got = expected);
              let m3 = SM.make ~epoch:3 m1.SM.entries in
              List.iteri
                (fun i (e : SM.entry) ->
                  Client.with_connect ~port:e.SM.port (fun sc ->
                      let _, epoch =
                        reply_ok "epoch 3 straight to a shard"
                          (Client.shard_map_set sc ~map:m3 ~self:i)
                      in
                      checki "shard acks epoch 3" 3 epoch))
                m3.SM.entries;
              let got =
                reply_ok "router range after the shards moved on"
                  (Client.range_search cl ~lo:full_lo ~hi:full_hi)
              in
              checkb "router rows = linear scan, z-ordered" true
                (int_rows got = expected);
              let stale_retries =
                match List.assoc_opt "cluster.stale_retries" (M.snapshot metrics) with
                | Some (M.Counter_v n) -> n
                | _ -> 0
              in
              checkb "the router resynced" true (stale_retries >= 1);
              checki "router caught up to epoch 3" 3 (Router.map router).SM.epoch)))

(* {1 The spawned-process contract}

   [sqp serve --port 0] must print SQP_SERVE_PORT=<port> as its first
   stdout line (the machine-parseable contract [sqp route] builds on)
   and exit 0 on SIGTERM after a graceful drain, also once its stdout
   reader has gone. *)

(* [bin/main.exe] of the build tree this test executable sits in, so
   the cases run whatever the working directory ([dune runtest] runs
   from [test/], CI's [dune exec] from the repository root). *)
let exe =
  Filename.concat
    (Filename.concat (Filename.dirname (Filename.dirname Sys.executable_name)) "bin")
    "main.exe"

(* Wait up to 10 s for [pid] to exit; a process still running then is
   killed and fails the test. *)
let wait_exit what pid =
  let t0 = Unix.gettimeofday () in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when Unix.gettimeofday () -. t0 < 10. ->
        Thread.delay 0.01;
        wait ()
    | 0, _ ->
        Unix.kill pid Sys.sigkill;
        ignore (Unix.waitpid [] pid);
        Alcotest.failf "%s: still running after 10 s" what
    | _, status -> status
  in
  wait ()

(* What follows [prefix] on the first line of [ic] that starts with it. *)
let rec line_after ic prefix =
  let line = input_line ic in
  if String.starts_with ~prefix line then
    String.sub line (String.length prefix) (String.length line - String.length prefix)
  else line_after ic prefix

let refuses_connections port =
  let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close s)
    (fun () ->
      match Unix.connect s (Unix.ADDR_INET (Unix.inet_addr_loopback, port)) with
      | () -> false
      | exception Unix.Unix_error (Unix.ECONNREFUSED, _, _) -> true)

(* [sqp ARGS] with its stdout on a pipe whose read end the test closes
   after the port line (and, for a router, its shard lines), so every
   later status line meets a closed pipe; then SIGTERM.  The process
   must still drain and exit 0.  Returns the spawned shards' ports,
   read off the router's [  shard I: HOST:PORT ...] lines. *)
let drains_with_stdout_closed ~port_key ~shards args =
  let what = String.concat " " args in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin out_w Unix.stderr in
  Unix.close out_w;
  let ic = Unix.in_channel_of_descr out_r in
  let exited = ref false in
  Fun.protect
    ~finally:(fun () ->
      close_in_noerr ic;
      if not !exited then begin
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()
      end)
    (fun () ->
      ignore (line_after ic (port_key ^ "="));
      let shard_ports =
        List.init shards (fun i ->
            let spec = line_after ic (Printf.sprintf "  shard %d: " i) in
            let endpoint = List.hd (String.split_on_char ' ' spec) in
            let colon = String.rindex endpoint ':' in
            int_of_string
              (String.sub endpoint (colon + 1) (String.length endpoint - colon - 1)))
      in
      close_in ic;
      Unix.kill pid Sys.sigterm;
      let status = wait_exit what pid in
      exited := true;
      checkb (what ^ ": drains and exits 0 with stdout closed") true
        (status = Unix.WEXITED 0);
      shard_ports)

let test_spawned_serve () =
  if not (Sys.file_exists exe) then
    Alcotest.skip ()
  else begin
    let out_r, out_w = Unix.pipe ~cloexec:false () in
    let pid =
      Unix.create_process exe
        [|
          exe; "serve"; "--port"; "0"; "--points"; "60"; "--objects"; "4";
          "--shard"; "0/2";
        |]
        Unix.stdin out_w Unix.stderr
    in
    Unix.close out_w;
    let ic = Unix.in_channel_of_descr out_r in
    Fun.protect
      ~finally:(fun () ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
        close_in_noerr ic)
      (fun () ->
        let first = input_line ic in
        let prefix = "SQP_SERVE_PORT=" in
        checkb "first stdout line is the port line" true
          (String.length first > String.length prefix
          && String.sub first 0 (String.length prefix) = prefix);
        let port =
          int_of_string
            (String.sub first (String.length prefix)
               (String.length first - String.length prefix))
        in
        Client.with_connect ~port (fun cl ->
            let h = reply_ok "spawned health" (Client.health cl) in
            checkb "spawned shard is healthy" true h.P.healthy);
        Unix.kill pid Sys.sigterm;
        (try
           while true do
             ignore (input_line ic)
           done
         with End_of_file -> ());
        let _, status = Unix.waitpid [] pid in
        checkb "SIGTERM drain exits 0" true (status = Unix.WEXITED 0));
    ignore
      (drains_with_stdout_closed ~port_key:"SQP_SERVE_PORT" ~shards:0
         [ "serve"; "--port"; "0"; "--points"; "60"; "--objects"; "4" ]);
    List.iter
      (fun port ->
        checkb "the router's spawned shard is gone" true (refuses_connections port))
      (drains_with_stdout_closed ~port_key:"SQP_ROUTE_PORT" ~shards:1
         [ "route"; "--port"; "0"; "--spawn"; "1"; "--points"; "60"; "--objects"; "4" ])
  end

(* Run [sqp ARGS] to its exit with stdout discarded: its exit status
   and its stderr lines.  A process still running after 10 s (a server
   that accepted its flags) is killed and fails the test. *)
let run_to_exit args =
  let err_file = Filename.temp_file "sqp_cli" ".err" in
  Fun.protect
    ~finally:(fun () -> Sys.remove err_file)
    (fun () ->
      let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
      let err = Unix.openfile err_file [ Unix.O_WRONLY; Unix.O_TRUNC ] 0 in
      let pid =
        Fun.protect
          ~finally:(fun () ->
            Unix.close devnull;
            Unix.close err)
          (fun () ->
            Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin devnull err)
      in
      let status = wait_exit (String.concat " " args) pid in
      let lines =
        In_channel.with_open_text err_file In_channel.input_all
        |> String.split_on_char '\n'
        |> List.filter (( <> ) "")
      in
      (status, lines))

(* A flag value out of range is a usage error: exit 2 with one line on
   stderr, not an uncaught exception (exit 125) or a server on a
   wrapped port. *)
let expect_usage_error args =
  let status, lines = run_to_exit args in
  let what = String.concat " " args in
  checkb (what ^ " exits 2") true (status = Unix.WEXITED 2);
  checki (what ^ ": one stderr line") 1 (List.length lines)

let small_seeds = [ "--points=60"; "--objects=4" ]

(* A shard range below z 0 is refused like an inverted one. *)
let test_spawned_bad_shard () =
  if not (Sys.file_exists exe) then Alcotest.skip ()
  else
    List.iter
      (fun spec -> expect_usage_error ("serve" :: "--port=0" :: spec :: small_seeds))
      [ "--shard=-5:10"; "--shard=5:2" ]

let test_spawned_bad_flags () =
  if not (Sys.file_exists exe) then Alcotest.skip ()
  else
    List.iter expect_usage_error
      [
        "serve" :: "--port=70000" :: small_seeds;
        "serve" :: "--port=-1" :: small_seeds;
        "serve" :: "--port=0" :: "--max-in-flight=0" :: small_seeds;
        "serve" :: "--port=0" :: "--max-queue=-1" :: small_seeds;
        "serve" :: "--port=0" :: "--deadline-ms=0" :: small_seeds;
        "serve" :: "--port=0" :: "--deadline-ms=-5" :: small_seeds;
        [ "serve"; "--port=0"; "--points=60"; "--objects=-1" ];
        [ "serve"; "--port=0"; "--points=-5"; "--objects=4" ];
        [ "serve"; "--port=0"; "--points=2000000"; "--objects=4" ];
        "route" :: "--port=70000" :: "--shards=127.0.0.1:1" :: small_seeds;
        "route" :: "--port=0" :: "--shards=127.0.0.1:abc" :: small_seeds;
        "route" :: "--port=0" :: "--shards=127.0.0.1:70000" :: small_seeds;
        [ "shell"; "--port=70000"; "-c"; "health" ];
        [ "shell"; "--port=0"; "-c"; "health" ];
        [ "shell"; "--deadline-ms=0"; "-c"; "health" ];
      ]

(* A loopback socket bound to a free port; [listen] or close it. *)
let bound_socket () =
  let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.bind s (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  match Unix.getsockname s with
  | Unix.ADDR_INET (_, port) -> (s, string_of_int port)
  | Unix.ADDR_UNIX _ -> assert false

(* A dial or a bind that fails is one [error:] line and exit 1: the
   shell and a router dialing a port nothing listens on (bound by the
   test, then closed), and a server asked to listen on a port the test
   holds. *)
let test_spawned_network_failure () =
  if not (Sys.file_exists exe) then Alcotest.skip ()
  else
    let expect_error args =
      let status, lines = run_to_exit args in
      let what = String.concat " " args in
      checkb (what ^ " exits 1") true (status = Unix.WEXITED 1);
      match lines with
      | [ line ] ->
          checkb (what ^ ": the line starts with error:") true
            (String.starts_with ~prefix:"error: " line)
      | _ -> Alcotest.failf "%s: want one stderr line, got %d" what (List.length lines)
    in
    let closed, closed_port = bound_socket () in
    Unix.close closed;
    expect_error [ "shell"; "--port=" ^ closed_port; "-c"; "health" ];
    expect_error ("route" :: "--port=0" :: ("--shards=127.0.0.1:" ^ closed_port) :: small_seeds);
    let held, held_port = bound_socket () in
    Fun.protect
      ~finally:(fun () -> Unix.close held)
      (fun () ->
        Unix.listen held 1;
        expect_error ("serve" :: ("--port=" ^ held_port) :: small_seeds))

let () =
  Alcotest.run "cluster"
    [
      ( "scatter-gather",
        [
          Alcotest.test_case "range/live/join differential at 1, 2, 4 shards"
            `Quick test_differential;
          Alcotest.test_case "unanswerable plans draw Bad_request" `Quick
            test_plan_rejection;
          Alcotest.test_case "shard-connection kills" `Quick test_shard_kills;
          Alcotest.test_case "out-of-grid ranges draw the server's Bad_request"
            `Quick test_out_of_grid;
          Alcotest.test_case "tag 10 answers Ok and changes nothing" `Quick
            test_refresh_stats;
        ] );
      ( "ingest",
        [
          Alcotest.test_case "exactly-once workload over a faulty wire" `Quick
            test_workload_differential;
        ] );
      ( "fencing",
        [
          Alcotest.test_case "a pushed epoch fences a forward, a client and the router"
            `Quick test_fencing;
        ] );
      ( "process",
        [
          Alcotest.test_case "serve reports its port and drains on SIGTERM"
            `Quick test_spawned_serve;
          Alcotest.test_case "serve refuses a shard range below z 0" `Quick
            test_spawned_bad_shard;
          Alcotest.test_case "out-of-range flags exit 2" `Quick
            test_spawned_bad_flags;
          Alcotest.test_case "dial and bind failures exit 1 with one line" `Quick
            test_spawned_network_failure;
        ] );
    ]
