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
   to end (client → router → owning shard); a live rebalance under
   concurrent mutations loses and duplicates nothing, flips the epoch,
   and forces a map-caching client through the stale-epoch refetch
   protocol; and a real [sqp serve] child process reports its port
   machine-parseably and exits 0 on SIGTERM.

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

(* {1 Rebalancing under fire}

   One shard owns the whole small space; a second starts empty.  While
   a mutator thread keeps inserting and deleting through the router, a
   [split] moves the upper half of the z range to the empty shard.
   Nothing may be lost or duplicated: the final cluster-wide scan must
   equal the oracle exactly, the epoch must have flipped, the new shard
   must hold only rows it owns — and a map-caching {!Cluster_client}
   connected before the move must be forced through the stale-epoch
   refetch protocol by the shards themselves. *)

let rebalance_seed seed =
  (* two live tables per shard: the split must move BOTH — a rebalance
     that only copied "L" would orphan "M"'s moved-range rows on the
     source (hidden by ownership filtering = silent data loss) *)
  let mk_live () =
    Live.create ~encode:string_of_int ~decode:int_of_string small_space
  in
  let lv_src = mk_live ()
  and lv_dst = mk_live ()
  and lv_src_m = mk_live ()
  and lv_dst_m = mk_live () in
  let mk lv lvm =
    Server.start ~metrics:(M.create ())
      (Catalog.make
         ~lives:[ ("L", lv); ("M", lvm) ]
         ~space:small_space ~points:[] ~relations:[] ())
  in
  let src = mk lv_src lv_src_m and dst = mk lv_dst lv_dst_m in
  Fun.protect
    ~finally:(fun () ->
      Server.stop src;
      Server.stop dst)
    (fun () ->
      let router =
        Router.start ~metrics:(M.create ()) ~space:small_space
          ~map:(SM.even small_space [ ("127.0.0.1", Server.port src) ])
          ()
      in
      Fun.protect
        ~finally:(fun () -> Router.stop router)
        (fun () ->
          let zmax = (1 lsl 12) - 1 and at = 1 lsl 11 in
          let oracle = WG.Oracle.create small_space in
          let oracle_m = WG.Oracle.create small_space in
          Client.with_connect
            ~port:(Router.port router)
            ~client_id:(seed * 41)
            (fun cl ->
              (* seed 200 distinct points while the map is still 1 entry *)
              let pt i = [| i mod small_side; i / small_side * 7 |] in
              for b = 0 to 9 do
                let batch =
                  List.init 20 (fun j ->
                      let i = (b * 20) + j in
                      (pt i, (seed * 10_000) + i))
                in
                let applied, _ =
                  reply_ok "seed insert" (Client.insert cl ~table:"L" batch)
                in
                checki "seed batch applied" 20 applied;
                List.iter (fun (p, v) -> WG.Oracle.insert oracle p v) batch
              done;
              (* seed the second table across the whole space too *)
              let pt_m i = [| (i * 3) mod small_side; i / 2 mod small_side |] in
              for b = 0 to 4 do
                let batch =
                  List.init 20 (fun j ->
                      let i = (b * 20) + j in
                      (pt_m i, (seed * 30_000) + i))
                in
                let applied, _ =
                  reply_ok "seed insert M" (Client.insert cl ~table:"M" batch)
                in
                checki "seed M batch applied" 20 applied;
                List.iter (fun (p, v) -> WG.Oracle.insert oracle_m p v) batch
              done;
              (* a map-caching client bootstraps at epoch 1 *)
              let cc = CC.connect ~router_port:(Router.port router) () in
              Fun.protect
                ~finally:(fun () -> CC.close cc)
                (fun () ->
                  checki "cached epoch before the move" 1 (CC.epoch cc);
                  ignore
                    (reply_ok "direct range at epoch 1"
                       (CC.range_search cc ~space:small_space ~lo:small_full_lo
                          ~hi:small_full_hi));
                  checki "no refetch yet" 0 (CC.refetches cc);
                  (* mutate through the router while the split runs *)
                  let mutator_error = Atomic.make None in
                  let mutator =
                    Thread.create
                      (fun () ->
                        try
                          Client.with_connect
                            ~port:(Router.port router)
                            ~client_id:(seed * 43)
                            (fun mcl ->
                              let present = ref (List.init 200 pt) in
                              for j = 0 to 119 do
                                if j mod 3 = 2 then (
                                  match !present with
                                  | [] -> ()
                                  | p :: rest ->
                                      let applied, _ =
                                        reply_ok "mutator delete"
                                          (Client.delete mcl ~table:"L" [ p ])
                                      in
                                      if applied <> 1 then
                                        failwith
                                          (Printf.sprintf
                                             "mutator delete applied %d" applied);
                                      ignore (WG.Oracle.delete oracle p);
                                      present := rest)
                                else
                                  let p =
                                    [|
                                      j mod small_side;
                                      35 + (j / small_side * 7);
                                    |]
                                  in
                                  let v = (seed * 20_000) + j in
                                  let applied, _ =
                                    reply_ok "mutator insert"
                                      (Client.insert mcl ~table:"L" [ (p, v) ])
                                  in
                                  if applied <> 1 then
                                    failwith
                                      (Printf.sprintf "mutator insert applied %d"
                                         applied);
                                  WG.Oracle.insert oracle p v;
                                  (* keep the second table hot too: its
                                     dual-writes and chunk copies must
                                     interleave with "L"'s *)
                                  let pm =
                                    [|
                                      (j * 5) mod small_side;
                                      50 + (j mod 14);
                                    |]
                                  in
                                  let vm = (seed * 40_000) + j in
                                  let applied_m, _ =
                                    reply_ok "mutator insert M"
                                      (Client.insert mcl ~table:"M"
                                         [ (pm, vm) ])
                                  in
                                  if applied_m <> 1 then
                                    failwith
                                      (Printf.sprintf
                                         "mutator M insert applied %d" applied_m);
                                  WG.Oracle.insert oracle_m pm vm
                              done)
                        with e -> Atomic.set mutator_error (Some e))
                      ()
                  in
                  (* move the upper half of the range — BOTH live
                     tables — to the empty shard *)
                  (match
                     Router.split router
                       ~tables:[ "L"; "M" ]
                       ~from_:0 ~at ~host:"127.0.0.1" ~port:(Server.port dst)
                   with
                  | Ok () -> ()
                  | Error m -> Alcotest.failf "split: %s" m);
                  Thread.join mutator;
                  (match Atomic.get mutator_error with
                  | Some e -> Alcotest.failf "mutator: %s" (Printexc.to_string e)
                  | None -> ());
                  let m = Router.map router in
                  checki "epoch flipped" 2 m.SM.epoch;
                  checki "two entries" 2 (List.length m.SM.entries);
                  checki "cut at the split point" at
                    (List.nth m.SM.entries 1).SM.zlo;
                  ignore zmax;
                  (* nothing lost, nothing duplicated *)
                  let got =
                    reply_ok "post-split scan"
                      (Client.live_range cl ~table:"L" ~lo:small_full_lo
                         ~hi:small_full_hi)
                  in
                  let expected = rows_of_entries (WG.Oracle.scan oracle) in
                  checkb
                    (Printf.sprintf "seed %d: post-split state = oracle" seed)
                    true
                    (List.equal tuple_eq expected (Relation.tuples got));
                  (* the new shard holds only rows it owns *)
                  checkb "dst rows are all in the moved range" true
                    (List.for_all
                       (fun (p, _) ->
                         SM.z_of_point small_space p >= at)
                       (Live.snapshot_entries (Live.snapshot lv_dst)));
                  checkb "dst actually received rows" true
                    (Live.snapshot_length (Live.snapshot lv_dst) > 0);
                  (* the second table moved too, with the same guarantees *)
                  let got_m =
                    reply_ok "post-split scan M"
                      (Client.live_range cl ~table:"M" ~lo:small_full_lo
                         ~hi:small_full_hi)
                  in
                  let expected_m = rows_of_entries (WG.Oracle.scan oracle_m) in
                  checkb
                    (Printf.sprintf "seed %d: post-split M state = oracle" seed)
                    true
                    (List.equal tuple_eq expected_m (Relation.tuples got_m));
                  checkb "dst M rows are all in the moved range" true
                    (List.for_all
                       (fun (p, _) -> SM.z_of_point small_space p >= at)
                       (Live.snapshot_entries (Live.snapshot lv_dst_m)));
                  checkb "dst actually received M rows" true
                    (Live.snapshot_length (Live.snapshot lv_dst_m) > 0);
                  (* the cached client is fenced off and recovers *)
                  ignore
                    (reply_ok "direct range after the move"
                       (CC.range_search cc ~space:small_space ~lo:small_full_lo
                          ~hi:small_full_hi));
                  checkb "stale-epoch refetch ran" true (CC.refetches cc >= 1);
                  checki "cached epoch caught up" 2 (CC.epoch cc)))))

let test_rebalance () = List.iter rebalance_seed seeds

(* A split that omits a live table must abort — map unflipped, nothing
   lost — as soon as a mutation touches that table anywhere in the
   moving range (above the watermark included: a row landing in the
   not-yet-copied suffix would never be copied, then hidden at the
   flip).  The interleaving is driven, not raced: the target's
   [on_execute] hook holds the split's first chunk write until one "M"
   insert through the router has returned.  That insert lands in the
   moving range's second chunk, outside the chunk being copied, so the
   router's gate lets it through instead of waiting on the held copy. *)
let test_split_abort () =
  (* 2-d depth 7: z values of 14 bits.  Splitting at z = 8192 moves
     [8192, 16383], two 4096-cell chunks: [8192, 12287] holds the
     points with x >= 64 and y < 64, [12288, 16383] those with both
     coordinates >= 64. *)
  let space = Space.make ~dims:2 ~depth:7 in
  let at = 8192 and second_chunk = 12288 in
  let full_hi = [| Space.side space - 1; Space.side space - 1 |] in
  let z_of p = SM.z_of_point space p in
  let mk_live () =
    Live.create ~encode:string_of_int ~decode:int_of_string space
  in
  (* the hook's state: `Idle until the first executed request on the
     target (the split's first chunk write), `Held while that request
     waits, `Released once the M insert has returned *)
  let hook = Mutex.create () and hook_cv = Condition.create () in
  let state = ref `Idle and split_done = ref false in
  let on_execute () =
    Mutex.lock hook;
    if !state = `Idle then begin
      state := `Held;
      Condition.broadcast hook_cv;
      while !state = `Held do
        Condition.wait hook_cv hook
      done
    end;
    Mutex.unlock hook
  in
  let mk ?config lv lvm =
    Server.start ?config ~metrics:(M.create ())
      (Catalog.make ~lives:[ ("L", lv); ("M", lvm) ] ~space ~points:[]
         ~relations:[] ())
  in
  let src = mk (mk_live ()) (mk_live ())
  and dst =
    mk
      ~config:{ Server.default_config with on_execute }
      (mk_live ()) (mk_live ())
  in
  Fun.protect
    ~finally:(fun () ->
      Server.stop src;
      Server.stop dst)
    (fun () ->
      let router =
        Router.start ~metrics:(M.create ()) ~space
          ~map:(SM.even space [ ("127.0.0.1", Server.port src) ])
          ()
      in
      Fun.protect
        ~finally:(fun () -> Router.stop router)
        (fun () ->
          Client.with_connect ~port:(Router.port router) ~client_id:91
            (fun cl ->
              (* seed L in the first chunk, so copying it writes to the
                 target (copy_chunk skips empty chunks) *)
              let seed =
                List.init 50 (fun i -> ([| 64 + i; i * 7 mod 64 |], i))
              in
              List.iter
                (fun (p, _) ->
                  let z = z_of p in
                  checkb "L seed in the first chunk" true
                    (z >= at && z < second_chunk))
                seed;
              ignore (reply_ok "seed L" (Client.insert cl ~table:"L" seed));
              let result = ref None in
              let splitter =
                Thread.create
                  (fun () ->
                    let r =
                      Router.split router ~tables:[ "L" ] ~from_:0 ~at
                        ~host:"127.0.0.1" ~port:(Server.port dst)
                    in
                    Mutex.lock hook;
                    result := Some r;
                    split_done := true;
                    Condition.broadcast hook_cv;
                    Mutex.unlock hook)
                  ()
              in
              (* wait until the first chunk write is held on the target *)
              Mutex.lock hook;
              while !state = `Idle && not !split_done do
                Condition.wait hook_cv hook
              done;
              let held = !state = `Held in
              Mutex.unlock hook;
              checkb "first chunk write reached the target" true held;
              let m_point = [| 100; 100 |] in
              checkb "M write in the moving range, outside the held chunk"
                true
                (z_of m_point >= second_chunk);
              let applied, _ =
                reply_ok "M insert during the split"
                  (Client.insert cl ~table:"M" [ (m_point, 7) ])
              in
              checki "M insert applied" 1 applied;
              Mutex.lock hook;
              state := `Released;
              Condition.broadcast hook_cv;
              Mutex.unlock hook;
              Thread.join splitter;
              (match Option.get !result with
              | Error m ->
                  checkb "abort names the orphaned table" true
                    (contains m "\"M\"")
              | Ok () -> Alcotest.fail "L-only split succeeded under an M write");
              checki "map unflipped after abort" 1
                (Router.map router).SM.epoch;
              checki "single entry still" 1
                (List.length (Router.map router).SM.entries);
              (* nothing lost: the acked M write is still served *)
              let got =
                reply_ok "M scan after abort"
                  (Client.live_range cl ~table:"M" ~lo:[| 0; 0 |] ~hi:full_hi)
              in
              checki "M rows all intact after abort" 1
                (List.length (Relation.tuples got));
              (* and the cluster still serves mutations normally *)
              let applied, _ =
                reply_ok "post-abort insert"
                  (Client.insert cl ~table:"L" [ ([| 1; 1 |], 424242) ])
              in
              checki "post-abort insert applied" 1 applied)))

(* {1 The spawned-process contract}

   [sqp serve --port 0] must print SQP_SERVE_PORT=<port> as its first
   stdout line (the machine-parseable contract [sqp route] builds on)
   and exit 0 on SIGTERM after a graceful drain. *)

let exe = Filename.concat (Filename.concat ".." "bin") "main.exe"

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
        checkb "SIGTERM drain exits 0" true (status = Unix.WEXITED 0))
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
      let what = String.concat " " args in
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
      let status = wait () in
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
      ( "rebalance",
        [
          Alcotest.test_case "split under concurrent mutations" `Quick
            test_rebalance;
          Alcotest.test_case "split omitting a live table aborts" `Quick
            test_split_abort;
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
