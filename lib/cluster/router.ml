module P = Sqp_server.Protocol
module SM = Sqp_server.Shard_map
module Client = Sqp_server.Client
module Net = Sqp_server.Net
module Z = Sqp_zorder
module R = Sqp_relalg
module W = Sqp_relalg.Wire
module Metrics = Sqp_obs.Metrics

type config = {
  host : string;
  port : int;
  max_frame_bytes : int;
  idle_timeout_s : float option;
  frame_timeout_s : float option;
  session_io : (Unix.file_descr -> P.io) option;
  shard_wrap : (Unix.file_descr -> P.io) option;
  connect_timeout : float;
  shard_attempts : int;
}

let default_config =
  {
    host = "127.0.0.1";
    port = 0;
    max_frame_bytes = P.default_max_frame_bytes;
    idle_timeout_s = None;
    frame_timeout_s = None;
    session_io = None;
    shard_wrap = None;
    connect_timeout = 5.0;
    shard_attempts = 4;
  }

(* {1 Shard connection pools}

   One small free-list of clients per endpoint: sessions are threads, so
   concurrent fan-outs must not share a connection (the protocol has no
   frame multiplexing).  A client whose transport failed is closed, not
   returned — the next caller re-dials. *)

type pool = { mutable free : Client.t list; pm : Mutex.t }

type t = {
  config : config;
  space : Z.Space.t;
  mutable rmap : SM.t;
  m : Mutex.t;
  pools : (string, pool) Hashtbl.t;
  pools_m : Mutex.t;
  mutable net : Net.t option;
  mutable stopped : bool;
  c_requests : Metrics.counter;
  h_fanout : Metrics.histogram;
  c_skipped : Metrics.counter;
  c_stale_retries : Metrics.counter;
  g_epoch : Metrics.gauge;
}

let port t = match t.net with Some n -> Net.port n | None -> 0

let current_map t =
  Mutex.lock t.m;
  let m = t.rmap in
  Mutex.unlock t.m;
  m

let map = current_map

let set_map t m =
  Mutex.lock t.m;
  if m.SM.epoch >= t.rmap.SM.epoch then begin
    t.rmap <- m;
    Metrics.set_gauge t.g_epoch m.SM.epoch
  end;
  Mutex.unlock t.m

let indexed entries = List.mapi (fun i e -> (i, e)) entries

let endpoint_key host port = Printf.sprintf "%s:%d" host port

let take_client t ~host ~port =
  let key = endpoint_key host port in
  Mutex.lock t.pools_m;
  let p =
    match Hashtbl.find_opt t.pools key with
    | Some p -> p
    | None ->
        let p = { free = []; pm = Mutex.create () } in
        Hashtbl.add t.pools key p;
        p
  in
  Mutex.unlock t.pools_m;
  Mutex.lock p.pm;
  match p.free with
  | c :: rest ->
      p.free <- rest;
      Mutex.unlock p.pm;
      (p, c)
  | [] ->
      Mutex.unlock p.pm;
      let c =
        Client.connect ~host ~connect_timeout:t.config.connect_timeout
          ~max_attempts:t.config.shard_attempts ?wrap:t.config.shard_wrap ~port
          ()
      in
      (p, c)

let put_client p c =
  Mutex.lock p.pm;
  p.free <- c :: p.free;
  Mutex.unlock p.pm

(* Run [f] on a pooled client for shard [entry]; the client goes back
   to the pool unless the call ended in a transport failure. *)
let with_entry t (entry : SM.entry) f =
  let host = entry.SM.host and port = entry.SM.port in
  match take_client t ~host ~port with
  | exception e ->
      Error
        (Client.Transport
           {
             attempts = 1;
             message =
               Printf.sprintf "shard %s:%d unreachable: %s" host port
                 (match e with
                 | Unix.Unix_error (err, fn, _) ->
                     Printf.sprintf "%s: %s" fn (Unix.error_message err)
                 | e -> Printexc.to_string e);
           })
  | p, c -> (
      let r = try f c with e -> Error (Client.Transport { attempts = 1; message = Printexc.to_string e }) in
      match r with
      | Error (Client.Transport _) ->
          Client.close c;
          r
      | _ ->
          put_client p c;
          r)

let shard_label (e : SM.entry) =
  Printf.sprintf "%s:%d z=[%d,%d]" e.SM.host e.SM.port e.SM.zlo e.SM.zhi

let response_of_reply (e : SM.entry) = function
  | Ok resp -> resp
  | Error (Client.Remote { code; message }) -> P.Error { code; message }
  | Error (Client.Transport { attempts; message }) ->
      P.Error
        {
          code = P.Server_error;
          message =
            Printf.sprintf "shard %s unreachable after %d attempt%s: %s"
              (shard_label e) attempts
              (if attempts = 1 then "" else "s")
              message;
        }

(* {1 Scatter}

   One thread per sub-request (they block on I/O, not CPU); results come
   back in target-list order, so z-ordered merges need no sort. *)

let scatter jobs =
  match jobs with
  | [] -> []
  | [ j ] -> [ j () ]
  | _ ->
      let arr = Array.of_list jobs in
      let out = Array.make (Array.length arr) None in
      let threads =
        Array.mapi
          (fun i j -> Thread.create (fun () -> out.(i) <- Some (j ())) ())
          arr
      in
      Array.iter Thread.join threads;
      Array.to_list out
      |> List.map (function Some r -> r | None -> assert false)

(* Settle a scatter's answers: any [Stale_epoch] sends the request back
   for map repair and re-routing, else the first error is the answer,
   else [merge] combines the shards' successes. *)
let settle merge results =
  let error (_, _, r) = match r with P.Error _ as e -> Some e | _ -> None in
  let stale (_, _, r) =
    match r with P.Error { code = P.Stale_epoch; _ } -> true | _ -> false
  in
  if List.exists stale results then `Stale
  else `Done (match List.find_map error results with Some e -> e | None -> merge results)

(* Forward the client's original payload, verbatim, to each target —
   version byte, deadline and idempotency key travel untouched, so the
   shard-side dedup windows see the origin client's key and the
   exactly-once contract holds end to end. *)
let forward_to t m ?deadline_ms payload targets =
  scatter
    (List.map
       (fun (i, e) () ->
         ( i,
           e,
           response_of_reply e
             (with_entry t e (fun c ->
                  Client.forward ?deadline_ms c ~epoch:m.SM.epoch ~payload)) ))
       targets)

(* {1 Map repair}

   On [Stale_epoch] somebody's epoch moved without us (or a shard missed
   a push): adopt the highest epoch visible anywhere, then push it back
   out.  Bounded by the caller's retry budget. *)

let push_map t m =
  List.map
    (fun (i, e) ->
      match with_entry t e (fun c -> Client.shard_map_set c ~map:m ~self:i) with
      | Ok _ -> Ok ()
      | Error err -> Error (shard_label e ^ ": " ^ Client.error_to_string err))
    (indexed m.SM.entries)

let resync t =
  Metrics.incr t.c_stale_retries;
  let m0 = current_map t in
  let best =
    List.fold_left
      (fun best (_, e) ->
        match with_entry t e (fun c -> Client.shard_map_get c) with
        | Ok m when m.SM.epoch > best.SM.epoch -> m
        | _ -> best)
      m0 (indexed m0.SM.entries)
  in
  set_map t best;
  ignore (push_map t best)

let max_route_attempts = 3

(* [f m] routes one request under map [m]; [`Stale] means some shard
   fenced us off and the maps need repair before re-routing. *)
let rec with_stale_retry t attempt f =
  let m = current_map t in
  match f m with
  | `Done r -> r
  | `Stale ->
      if attempt >= max_route_attempts then
        P.Error
          {
            code = P.Stale_epoch;
            message = "cluster: shard map still moving after retries; try again";
          }
      else begin
        resync t;
        with_stale_retry t (attempt + 1) f
      end

(* {1 Fan-out pruning}

   Decompose the query box once — coarsely; over-approximation only adds
   a shard that will answer with zero rows — and keep the shards whose
   owned interval overlaps the cover. *)

let routing_options =
  { Z.Decompose.max_level = Some 8; max_elements = Some 64 }

let routing_intervals t box =
  Z.Zrange.elements_to_intervals t.space
    (Z.Decompose.decompose_box ~options:routing_options t.space
       ~lo:box.Sqp_geom.Box.lo ~hi:box.Sqp_geom.Box.hi)

let read_targets t m intervals =
  let targets =
    List.filter
      (fun (_, e) ->
        Z.Zrange.overlaps_interval intervals ~lo:e.SM.zlo ~hi:e.SM.zhi)
      (indexed m.SM.entries)
  in
  let total = List.length m.SM.entries in
  let n = List.length targets in
  Metrics.observe t.h_fanout n;
  Metrics.add t.c_skipped (total - n);
  if targets = [] then indexed m.SM.entries else targets

(* {1 Merging} *)

let rows_of results =
  List.map
    (fun (_, _, r) -> match r with P.Rows rel -> rel | _ -> assert false)
    results

let schema_check rels =
  match rels with
  | [] | [ _ ] -> true
  | r0 :: rest ->
      List.for_all
        (fun r -> R.Schema.equal (R.Relation.schema r0) (R.Relation.schema r))
        rest

let divergent_schemas =
  P.Error { code = P.Server_error; message = "shards answered with divergent schemas" }

(* Shards own ascending disjoint z ranges and answer range reads in z
   order, so concatenation in shard order IS the global z order. *)
let merge_concat results =
  match rows_of results with
  | [] -> P.Error { code = P.Server_error; message = "no shard answered" }
  | r0 :: _ as rels ->
      if not (schema_check rels) then divergent_schemas
      else
        P.Rows
          (R.Relation.make ~name:(R.Relation.name r0) (R.Relation.schema r0)
             (List.concat_map R.Relation.tuples rels))

let tuple_cmp a b =
  let n = Array.length a and m = Array.length b in
  if n <> m then compare n m
  else
    let rec go i =
      if i = n then 0
      else
        let c = R.Value.compare a.(i) b.(i) in
        if c <> 0 then c else go (i + 1)
    in
    go 0

(* Distinct merge for broadcast plans: cross-shard duplicates (an
   element pair replicated onto several shards) collapse; rows come back
   in one canonical sorted order, the same at every shard count. *)
let merge_distinct rels =
  match rels with
  | [] -> None
  | r0 :: _ ->
      if not (schema_check rels) then None
      else
        Some
          (R.Relation.make ~name:(R.Relation.name r0) (R.Relation.schema r0)
             (List.sort_uniq tuple_cmp (List.concat_map R.Relation.tuples rels)))

(* {1 Plan admissibility}

   A routed plan must be exact under "evaluate on every shard, distinct
   the union".  Row-local operators and [Spatial_join] are: boundary
   replication guarantees both sides of any overlapping element pair
   meet on at least one shard.  [Product]/[Natural_join] are not (their
   matching rows may live on different shards), and a root [Sort] would
   promise an order the distinct merge cannot keep.  The root must be
   the duplicate-eliminating [Project] so the merge's distinct is a
   no-op semantically. *)

let rec fragment_safe = function
  | W.Scan _ -> true
  | W.Select_equals (_, _, p)
  | W.Select_between (_, _, _, p)
  | W.Project (_, p)
  | W.Project_all (_, p)
  | W.Rename (_, p)
  | W.Sort (_, p) ->
      fragment_safe p
  | W.Spatial_join { left; right; _ } -> fragment_safe left && fragment_safe right
  | W.Union (a, b) -> fragment_safe a && fragment_safe b
  | W.Natural_join _ | W.Product _ -> false

let routable_plan = function
  | W.Project (_, inner) -> fragment_safe inner
  | _ -> false

let plan_rejection =
  P.Error
    {
      code = P.Bad_request;
      message =
        "cluster: a routed plan needs a duplicate-eliminating Project root \
         and may not contain Product or Natural_join (cross-shard pairs \
         would be lost) or a root Sort (shard order cannot be stitched)";
    }

(* {1 Mutation routing} *)

let owner_idx m z =
  let rec go i = function
    | [] -> None
    | (e : SM.entry) :: rest ->
        if z >= e.zlo && z <= e.zhi then Some i else go (i + 1) rest
  in
  go 0 m.SM.entries

(* [Shard_map.make] guarantees contiguous coverage from z = 0, so an
   unowned z can only mean a map built for a smaller space than the
   router's — a deployment error worth naming, not an assert. *)
exception Unowned_z of int

let group_by_owner m keyed =
  let n = List.length m.SM.entries in
  let buckets = Array.make n [] in
  List.iter
    (fun (z, it) ->
      match owner_idx m z with
      | Some i -> buckets.(i) <- it :: buckets.(i)
      | None -> raise (Unowned_z z))
    keyed;
  List.filteri (fun i _ -> buckets.(i) <> [])
  @@ List.mapi
       (fun i e -> (i, e, List.rev buckets.(i)))
       m.SM.entries

let unowned_error m z =
  P.Error
    {
      code = P.Bad_request;
      message =
        Printf.sprintf
          "cluster: no shard owns z value %d (map epoch %d covers z up to %d \
           — was the map built for a smaller space?)"
          z m.SM.epoch
          (match List.rev m.SM.entries with
          | e :: _ -> e.SM.zhi
          | [] -> -1);
    }

let merge_acks results =
  let applied, seq =
    List.fold_left
      (fun (a, s) (_, _, r) ->
        match r with
        | P.Ack { applied; seq } -> (a + applied, max s seq)
        | _ -> (a, s))
      (0, 0) results
  in
  P.Ack { applied; seq }

(* Forward per-shard sub-batches under the origin client's own deadline
   and idempotency key — each shard's dedup window then answers a
   replayed sub-batch with its original Ack, whoever retried (this
   router or the origin client). *)
let forward_subbatches t m (frame : P.request_frame) groups make_req =
  scatter
    (List.map
       (fun (i, e, sub) () ->
         let payload =
           P.encode_request
             {
               P.deadline_ms = frame.P.deadline_ms;
               idem = frame.P.idem;
               request = make_req sub;
             }
         in
         ( i,
           e,
           response_of_reply e
             (with_entry t e (fun c ->
                  Client.forward ?deadline_ms:frame.P.deadline_ms c
                    ~epoch:m.SM.epoch ~payload)) ))
       groups)

(* [Insert] and [Delete]: each point's z value is computed once (a
   point outside the space is the shards' [Bad_request], refused before
   any forward); then, under each map [with_stale_retry] hands in, the
   points are grouped by owner and forwarded as per-shard sub-batches. *)
let route_mutation t frame ~z_of ~make_req points =
  match List.map (fun it -> (z_of it, it)) points with
  | exception Invalid_argument message -> P.Error { code = P.Bad_request; message }
  | keyed ->
      with_stale_retry t 1 (fun m ->
          match group_by_owner m keyed with
          | exception Unowned_z z -> `Done (unowned_error m z)
          | groups -> settle merge_acks (forward_subbatches t m frame groups make_req))

(* {1 Broadcast plans and admin} *)

let broadcast t m ?deadline_ms payload =
  forward_to t m ?deadline_ms payload (indexed m.SM.entries)

let stitch_sections m results render =
  String.concat "\n"
    (Printf.sprintf "cluster: epoch %d, %d shard%s" m.SM.epoch
       (List.length m.SM.entries)
       (if List.length m.SM.entries = 1 then "" else "s")
    :: List.map
         (fun (i, e, r) ->
           Printf.sprintf "-- shard %d (%s) --\n%s" i (shard_label e) (render r))
         results)

let merge_query results =
  match merge_distinct (rows_of results) with
  | Some rel -> P.Rows rel
  | None -> divergent_schemas

let merge_analyzed m results =
  let rels =
    List.map
      (fun (_, _, r) ->
        match r with P.Analyzed { rows; _ } -> rows | _ -> assert false)
      results
  in
  match merge_distinct rels with
  | None -> divergent_schemas
  | Some rows ->
      let rendered =
        stitch_sections m results (fun r ->
            match r with
            | P.Analyzed { rendered; rows } ->
                Printf.sprintf "%s(%d rows from this shard)\n" rendered
                  (R.Relation.cardinality rows)
            | _ -> "")
      in
      P.Analyzed { rendered; rows }

let merge_texts m results =
  P.Text (stitch_sections m results (fun r -> match r with P.Text s -> s | _ -> ""))

let route_health t m =
  let results =
    scatter
      (List.map
         (fun (i, e) () ->
           (i, e, with_entry t e (fun c -> Client.health c)))
         (indexed m.SM.entries))
  in
  let bad =
    List.filter_map
      (fun (i, e, r) ->
        match r with
        | Ok h when h.P.healthy -> None
        | Ok h -> Some (Printf.sprintf "shard %d (%s): %s" i (shard_label e) h.P.mode)
        | Error err ->
            Some
              (Printf.sprintf "shard %d (%s): %s" i (shard_label e)
                 (Client.error_to_string err)))
      results
  in
  let sum f =
    List.fold_left
      (fun acc (_, _, r) -> match r with Ok h -> acc + f h | Error _ -> acc)
      0 results
  in
  let modes =
    List.filter_map
      (fun (_, _, r) ->
        match r with Ok h -> Some h.P.mode | Error _ -> Some "unreachable")
      results
  in
  let mode =
    if List.for_all (fun m -> m = "serving") modes then "serving"
    else String.concat "; " bad
  in
  let detail =
    Printf.sprintf "cluster: epoch %d, %d shards%s" m.SM.epoch
      (List.length m.SM.entries)
      (if bad = [] then "" else "; " ^ String.concat "; " bad)
  in
  P.Health_report
    {
      P.healthy = bad = [];
      detail;
      in_flight = sum (fun h -> h.P.in_flight);
      queued = sum (fun h -> h.P.queued);
      served = sum (fun h -> h.P.served);
      mode;
    }

(* {1 The handle: one payload in, one payload out} *)

let route t (frame : P.request_frame) payload =
  let deadline_ms = frame.P.deadline_ms in
  match frame.P.request with
  | P.Range_search { lo; hi } | P.Live_range { lo; hi; _ } -> (
      (* The shards' own bounds check, so a box they would refuse is
         refused here with their code and message, before any fan-out;
         the box is decomposed once, whatever the retries. *)
      match P.range_box t.space ~lo ~hi with
      | exception Invalid_argument message -> P.Error { code = P.Bad_request; message }
      | box ->
          let intervals = routing_intervals t box in
          with_stale_retry t 1 (fun m ->
              let targets = read_targets t m intervals in
              settle merge_concat (forward_to t m ?deadline_ms payload targets)))
  | P.Query plan ->
      if not (routable_plan plan) then plan_rejection
      else
        with_stale_retry t 1 (fun m ->
            settle merge_query (broadcast t m ?deadline_ms payload))
  | P.Analyze plan ->
      if not (routable_plan plan) then plan_rejection
      else
        with_stale_retry t 1 (fun m ->
            settle (merge_analyzed m) (broadcast t m ?deadline_ms payload))
  | P.Explain plan ->
      if not (routable_plan plan) then plan_rejection
      else
        with_stale_retry t 1 (fun m ->
            settle (merge_texts m) (broadcast t m ?deadline_ms payload))
  | P.Insert { table; points } ->
      route_mutation t frame points
        ~z_of:(fun (p, _) -> SM.z_of_point t.space p)
        ~make_req:(fun sub -> P.Insert { table; points = sub })
  | P.Delete { table; points } ->
      route_mutation t frame points ~z_of:(SM.z_of_point t.space)
        ~make_req:(fun sub -> P.Delete { table; points = sub })
  | P.Create_index _ ->
      with_stale_retry t 1 (fun m ->
          settle merge_acks (broadcast t m ?deadline_ms payload))
  | P.Refresh_stats | P.Recover ->
      with_stale_retry t 1 (fun m ->
          settle (merge_texts m) (broadcast t m ?deadline_ms payload))
  | P.Health -> route_health t (current_map t)
  | P.Shard_map_get -> P.Shard_map (current_map t)
  | P.Shard_map_set { map = m; self = _ } ->
      let current = current_map t in
      if m.SM.epoch < current.SM.epoch then
        P.Error
          {
            code = P.Stale_epoch;
            message =
              Printf.sprintf "router holds epoch %d, refusing epoch %d"
                current.SM.epoch m.SM.epoch;
          }
      else begin
        set_map t m;
        ignore (push_map t m);
        P.Ack { applied = List.length m.SM.entries; seq = m.SM.epoch }
      end
  | P.Forward _ ->
      P.Error
        {
          code = P.Bad_request;
          message = "the router does not accept forwarded envelopes";
        }

let handle t payload =
  Metrics.incr t.c_requests;
  match P.decode_request payload with
  | Error (code, message) -> P.encode_response (P.Error { code; message })
  | Ok frame -> (
      match route t frame payload with
      | resp -> P.encode_response resp
      | exception e ->
          P.encode_response
            (P.Error
               {
                 code = P.Server_error;
                 message = "router: " ^ Printexc.to_string e;
               }))

(* {1 Lifecycle} *)

let start ?(config = default_config) ?metrics ~space ~map () =
  let reg = match metrics with Some m -> m | None -> Metrics.global () in
  let t =
    {
      config;
      space;
      rmap = map;
      m = Mutex.create ();
      pools = Hashtbl.create 8;
      pools_m = Mutex.create ();
      net = None;
      stopped = false;
      c_requests = Metrics.counter reg "cluster.requests";
      h_fanout = Metrics.histogram reg "cluster.fanout";
      c_skipped = Metrics.counter reg "cluster.shards_skipped";
      c_stale_retries = Metrics.counter reg "cluster.stale_retries";
      g_epoch = Metrics.gauge reg "cluster.epoch";
    }
  in
  Metrics.set_gauge t.g_epoch map.SM.epoch;
  (* Every shard must accept the map before we serve a single request:
     a shard that cannot be fenced cannot be routed to. *)
  (match
     List.filter_map
       (function Error m -> Some m | Ok () -> None)
       (push_map t map)
   with
  | [] -> ()
  | errs -> failwith ("Router.start: " ^ String.concat "; " errs));
  let net_config =
    {
      Net.host = config.host;
      port = config.port;
      max_frame_bytes = config.max_frame_bytes;
      idle_timeout_s = config.idle_timeout_s;
      frame_timeout_s = config.frame_timeout_s;
      session_io = config.session_io;
    }
  in
  let net =
    Net.start ~config:net_config ~metrics:reg ~metrics_prefix:"cluster"
      ~handle:(fun payload -> handle t payload)
      ()
  in
  t.net <- Some net;
  t

let stop t =
  Mutex.lock t.m;
  let already = t.stopped in
  t.stopped <- true;
  Mutex.unlock t.m;
  if not already then begin
    (match t.net with Some n -> Net.stop n | None -> ());
    Mutex.lock t.pools_m;
    let pools = Hashtbl.fold (fun _ p acc -> p :: acc) t.pools [] in
    Hashtbl.reset t.pools;
    Mutex.unlock t.pools_m;
    List.iter
      (fun p ->
        Mutex.lock p.pm;
        let cs = p.free in
        p.free <- [];
        Mutex.unlock p.pm;
        List.iter Client.close cs)
      pools
  end
