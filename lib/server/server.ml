module P = Protocol
module R = Sqp_relalg
module Metrics = Sqp_obs.Metrics
module Storage_error = Sqp_storage.Storage_error

type config = {
  host : string;
  port : int;
  max_in_flight : int;
  max_queue : int;
  max_frame_bytes : int;
  default_deadline_ms : int option;
  idle_timeout_s : float option;
  frame_timeout_s : float option;
  session_io : (Unix.file_descr -> P.io) option;
  on_execute : unit -> unit;
}

let default_config =
  {
    host = "127.0.0.1";
    port = 0;
    max_in_flight = 8;
    max_queue = 32;
    max_frame_bytes = P.default_max_frame_bytes;
    default_deadline_ms = None;
    idle_timeout_s = None;
    frame_timeout_s = None;
    session_io = None;
    on_execute = ignore;
  }

(* Cluster membership, installed by a [Shard_map_set] frame: the map
   (for epoch fencing of [Forward] envelopes) and this shard's owned z
   interval ([None] = owns no range — every range read filters empty).
   A server that never receives a map serves everything, as before. *)
type cluster_state = {
  map : Shard_map.t;
  owned : (int * int) option;
}

type t = {
  config : config;
  cat : Catalog.t;
  adm : Admission.t;
  mutable net : Net.t option;  (* filled right after [Net.start] *)
  mutable stopped : bool;
  mutable degraded : string option;  (* read-only mode, with its reason *)
  mutable cluster : cluster_state option;
  m : Mutex.t;
  (* instruments *)
  c_requests : Metrics.counter;
  c_ok : Metrics.counter;
  c_err : Metrics.counter;
  c_timeouts : Metrics.counter;
  h_latency : Metrics.histogram;
  h_pages : Metrics.histogram;
  c_dedup_hits : Metrics.counter;
  c_stale_epoch : Metrics.counter;
  g_degraded : Metrics.gauge;
}

let port t = match t.net with Some n -> Net.port n | None -> 0

let stopping t = match t.net with Some n -> Net.stopping n | None -> false

let now = Unix.gettimeofday

let expired = function None -> false | Some d -> now () >= d

(* {1 Degraded mode}

   ENOSPC (or runtime corruption) on a mutation flips the server
   read-only: reads keep answering from memory, mutations draw the
   typed [Degraded] error, health reports the mode.  The [Recover]
   admin frame (or a restart) reopens the poisoned stores and flips
   back. *)

let degraded_reason t =
  Mutex.lock t.m;
  let d = t.degraded in
  Mutex.unlock t.m;
  d

let enter_degraded t reason =
  Mutex.lock t.m;
  if t.degraded = None then t.degraded <- Some reason;
  Mutex.unlock t.m;
  Metrics.set_gauge t.g_degraded 1

let leave_degraded t =
  Mutex.lock t.m;
  t.degraded <- None;
  Mutex.unlock t.m;
  Metrics.set_gauge t.g_degraded 0

(* {1 Cluster membership} *)

let cluster_state t =
  Mutex.lock t.m;
  let c = t.cluster in
  Mutex.unlock t.m;
  c

(* The z interval range reads must stay inside, as an always-filterable
   pair: [(1, 0)] (empty) when this shard owns no range, [None] when the
   server is not cluster-aware at all (single-node: serve everything).
   The filter keeps every row answered by one shard only: a shard may
   hold rows outside its owned interval (a pushed map that moved a cut
   leaves them with the old owner), and those stay hidden. *)
let owned_interval t =
  match cluster_state t with
  | None -> None
  | Some { owned = Some (zlo, zhi); _ } -> Some (zlo, zhi)
  | Some { owned = None; _ } -> Some (1, 0)

(* {1 Streamed range answers}

   A [Range_search] or [Live_range] answer is written once, into a
   payload of exactly its encoded size: byte for byte what
   [P.encode_response (P.Rows r)] writes for the relation [r] of its
   rows, with no relation built.  Both read a frozen tree through the
   one Section 3.3 merge, [Live.range_iter]: a range read the catalog's
   points, a live range a fresh snapshot of its table.  The merge is the
   only per-row loop: the owned-interval filter drops rows as they pass,
   and each kept row is held as a reference to the entry the tree
   already holds, so the row count is known before the one write. *)

module Live = Sqp_btree.Live

(* Row references in chunks of [chunk] slots: one word a row, and each
   chunk small enough to be born, and die, in the minor heap. *)
module Refs = struct
  let chunk = 128

  type 'a t = {
    mutable full : 'a array list;  (* filled chunks, newest first *)
    mutable cur : 'a array;
    mutable fill : int;
    mutable count : int;
  }

  let create () = { full = []; cur = [||]; fill = 0; count = 0 }

  let add r x =
    if r.fill = Array.length r.cur then begin
      if r.fill > 0 then r.full <- r.cur :: r.full;
      r.cur <- Array.make chunk x;
      r.fill <- 0
    end;
    r.cur.(r.fill) <- x;
    r.fill <- r.fill + 1;
    r.count <- r.count + 1

  let iter r f =
    List.iter (Array.iter f) (List.rev r.full);
    for i = 0 to r.fill - 1 do
      f r.cur.(i)
    done
end

let owned_filter space = function
  | None -> fun _ -> true
  | Some (zlo, zhi) ->
      fun p ->
        let z = Shard_map.z_of_point space p in
        zlo <= z && z <= zhi

let int_schema names = R.Schema.make (List.map (fun n -> (n, R.Value.TInt)) names)

let coord_names k = List.init k (fun i -> Printf.sprintf "x%d" i)

(* The one answer: relation "live" with the id column, or "range"
   without it; and the pages the merge read. *)
let answer ?owned ~ids snap box =
  let space = Live.snapshot_space snap in
  let keep = owned_filter space owned and rows = Refs.create () in
  let stats =
    Live.range_iter snap box (fun ((p, _) as e) -> if keep p then Refs.add rows e)
  in
  let k = Sqp_zorder.Space.dims space in
  let name, columns =
    if ids then ("live", "id" :: coord_names k) else ("range", coord_names k)
  in
  let w = P.int_rows ~name (int_schema columns) ~count:rows.Refs.count in
  Refs.iter rows (fun (p, id) ->
      if ids then P.add_int w id;
      for a = 0 to k - 1 do
        P.add_int w p.(a)
      done);
  (P.int_rows_payload w, stats.Live.pages)

let range_answer ?owned cat box = fst (answer ?owned ~ids:false (Catalog.point_tree cat) box)

let live_answer ?owned lv box = fst (answer ?owned ~ids:true (Live.snapshot lv) box)

let storage_failure_message e =
  match Storage_error.to_string e with
  | Some s -> s
  | None -> Printexc.to_string e

(* {1 Execution}

   Plan failures must come back as typed errors, not dead sessions:
   unresolvable names map to [Unknown_relation], malformed plans
   (missing attributes, clashing schemas) to [Bad_request], storage
   failures that make the store unwritable (disk full, corruption) flip
   degraded mode and map to [Degraded], anything else to
   [Server_error]. *)

(* What a request executes to: a response still to encode, or a range
   answer already encoded. *)
type answer = Response of P.response | Encoded of string

let error_response t = function
  | Sqp_relalg.Wire.Unknown_relation name ->
      P.Error
        {
          code = P.Unknown_relation;
          message = Printf.sprintf "no relation %S in the catalog" name;
        }
  | Storage_error.Io_error _ as e when Storage_error.is_disk_full e ->
      let message = storage_failure_message e in
      enter_degraded t ("disk full: " ^ message);
      P.Error { code = P.Degraded; message = "entering read-only mode: " ^ message }
  | Storage_error.Corrupt _ as e ->
      let message = storage_failure_message e in
      enter_degraded t ("corruption detected: " ^ message);
      P.Error { code = P.Degraded; message = "entering read-only mode: " ^ message }
  | Invalid_argument m -> P.Error { code = P.Bad_request; message = m }
  | Not_found ->
      P.Error
        { code = P.Bad_request; message = "plan references an unknown attribute" }
  | e -> P.Error { code = P.Server_error; message = Printexc.to_string e }

let guard t f = try f () with e -> Response (error_response t e)

(* Wire plan -> runnable plan: resolve names and push-down-optimize. *)
let instantiate t wplan =
  R.Plan.optimize (R.Wire.to_plan ~resolve:(Catalog.resolve t.cat) wplan)

(* The answer to a [Refresh_stats] frame: no plan and no answer depends
   on statistics, so the server keeps none. *)
let no_statistics = "no statistics: plans and answers do not depend on them"

let live_table t name =
  match Catalog.live t.cat name with
  | Some lv -> lv
  | None -> raise (R.Wire.Unknown_relation name)

(* One range path for both range reads, sharded or not: the exact
   cover merged against a frozen tree (Section 3.3), streamed through
   the owned-interval filter, its pages observed.  No per-box decision
   and no plan. *)
let range_read t ~ids snap box =
  let bytes, pages = answer ?owned:(owned_interval t) ~ids snap box in
  Metrics.observe t.h_pages pages;
  Encoded bytes

let execute t request =
  match request with
  | P.Range_search { lo; hi } ->
      guard t (fun () ->
          let box = P.range_box (Catalog.space t.cat) ~lo ~hi in
          range_read t ~ids:false (Catalog.point_tree t.cat) box)
  | P.Query wplan ->
      guard t (fun () -> Response (P.Rows (R.Plan.run (instantiate t wplan))))
  | P.Explain wplan ->
      guard t (fun () -> Response (P.Text (R.Plan.explain (instantiate t wplan))))
  | P.Analyze wplan ->
      guard t (fun () ->
          let a = R.Plan.run_analyze (instantiate t wplan) in
          Response
            (P.Analyzed { rendered = R.Plan.render_analysis a; rows = a.R.Plan.result }))
  | P.Refresh_stats -> Response (P.Text no_statistics)
  | P.Insert { table; points } ->
      guard t (fun () ->
          let lv = live_table t table in
          let seq, applied =
            Live.apply lv (List.map (fun (p, id) -> Live.Insert (p, id)) points)
          in
          Response (P.Ack { applied; seq }))
  | P.Delete { table; points } ->
      guard t (fun () ->
          let lv = live_table t table in
          let seq, applied =
            Live.apply lv (List.map (fun p -> Live.Delete p) points)
          in
          Response (P.Ack { applied; seq }))
  | P.Create_index { table } ->
      guard t (fun () ->
          let lv = live_table t table in
          let snap, seq = Live.rebuild_online lv in
          Response (P.Ack { applied = Live.snapshot_length snap; seq }))
  | P.Live_range { table; lo; hi } ->
      guard t (fun () ->
          let lv = live_table t table in
          let box = P.range_box (Live.space lv) ~lo ~hi in
          range_read t ~ids:true (Live.snapshot lv) box)
  | P.Health | P.Recover | P.Shard_map_get | P.Shard_map_set _ | P.Forward _ ->
      assert false (* handled before admission *)

let is_mutation = function
  | P.Insert _ | P.Delete _ | P.Create_index _ -> true
  | P.Range_search _ | P.Query _ | P.Explain _ | P.Analyze _ | P.Health
  | P.Live_range _ | P.Refresh_stats | P.Recover | P.Shard_map_get
  | P.Shard_map_set _ | P.Forward _ ->
      false

let mode t =
  match degraded_reason t with
  | Some reason -> "degraded: " ^ reason
  | None -> if stopping t then "draining" else "serving"

let health t =
  let healthy, detail = Catalog.health_detail t.cat in
  let detail =
    match cluster_state t with
    | None -> detail
    | Some { map; owned } ->
        detail
        ^ Printf.sprintf "; cluster: epoch %d, owns %s" map.Shard_map.epoch
            (match owned with
            | Some (zlo, zhi) -> Printf.sprintf "z [%d, %d]" zlo zhi
            | None -> "no range")
  in
  let in_flight, queued, _draining = Admission.stats t.adm in
  let degraded = degraded_reason t <> None in
  let draining = stopping t in
  P.Health_report
    {
      P.healthy = healthy && (not draining) && not degraded;
      detail = (if draining then detail ^ "; draining" else detail);
      in_flight;
      queued;
      served = Metrics.counter_value t.c_ok + Metrics.counter_value t.c_err;
      mode = mode t;
    }

(* The [Recover] admin frame: reopen any poisoned live-table store
   (journal recovery decides which side of the failed commit the disk
   landed on) and, if every store comes back, leave degraded mode.  A
   no-op success on a healthy server. *)
let recover t =
  match Catalog.recover_lives t.cat with
  | [] ->
      leave_degraded t;
      P.Text "recovered: all live stores healthy; accepting mutations"
  | failures ->
      let message =
        String.concat "; "
          (List.map
             (fun (name, e) -> name ^ ": " ^ storage_failure_message e)
             failures)
      in
      P.Error { code = P.Degraded; message = "recovery failed: " ^ message }

(* [Shard_map_set]: install (or advance) cluster membership.  Equal or
   newer epochs are accepted idempotently — a router retries the push on
   a torn connection — while a map going {e backwards} is fenced off. *)
let shard_map_set t map self =
  Mutex.lock t.m;
  let resp =
    match t.cluster with
    | Some { map = old; _ } when map.Shard_map.epoch < old.Shard_map.epoch ->
        P.Error
          {
            code = P.Stale_epoch;
            message =
              Printf.sprintf "map epoch %d below installed epoch %d"
                map.Shard_map.epoch old.Shard_map.epoch;
          }
    | _ ->
        let owned =
          if self < 0 then None
          else
            let e = List.nth map.Shard_map.entries self in
            Some (e.Shard_map.zlo, e.Shard_map.zhi)
        in
        t.cluster <- Some { map; owned };
        P.Ack
          {
            applied = List.length map.Shard_map.entries;
            seq = map.Shard_map.epoch;
          }
  in
  Mutex.unlock t.m;
  resp

let shard_map_get t =
  match cluster_state t with
  | Some { map; _ } -> P.Shard_map map
  | None ->
      P.Error { code = P.Unknown_relation; message = "no shard map installed" }

(* One request payload in, one encoded response payload out.

   Keyed requests pass through the catalog's dedup window: a replay
   returns the original encoded bytes without re-executing; a fresh key
   claims a slot that is committed with the encoded response after
   execution — {e before} the post-execution deadline check, so a
   mutation that applied but overshot its deadline still leaves its
   [Ack] behind for the retry.
   Admission-level failures (shed / queue timeout / draining / degraded
   rejection) release the slot instead: the client may retry and
   succeed later. *)
let rec handle t payload =
  let arrival = now () in
  Metrics.incr t.c_requests;
  let record ~error =
    Metrics.observe t.h_latency (int_of_float ((now () -. arrival) *. 1e6));
    Metrics.incr (if error then t.c_err else t.c_ok)
  in
  let finish resp =
    record ~error:(match resp with P.Error _ -> true | _ -> false);
    P.encode_response resp
  in
  match P.decode_request payload with
  | Error (code, message) -> finish (P.Error { code; message })
  | Ok { P.request = P.Health; _ } -> finish (health t)
  | Ok { P.request = P.Recover; _ } -> finish (recover t)
  | Ok { P.request = P.Shard_map_get; _ } -> finish (shard_map_get t)
  | Ok { P.request = P.Shard_map_set { map; self }; _ } ->
      finish (shard_map_set t map self)
  | Ok { P.request = P.Forward { epoch; payload = inner }; _ } -> (
      (* Epoch fencing happens before the inner request is even decoded:
         a sender routing under the wrong map learns so and refetches.
         A matching envelope unwraps into the full normal pipeline —
         admission, dedup window, degraded checks — so a forwarded
         mutation keeps its origin client's exactly-once key. *)
      match cluster_state t with
      | Some { map; _ } when map.Shard_map.epoch = epoch -> handle t inner
      | Some { map; _ } ->
          Metrics.incr t.c_stale_epoch;
          finish
            (P.Error
               {
                 code = P.Stale_epoch;
                 message =
                   Printf.sprintf "forwarded at epoch %d; shard holds epoch %d"
                     epoch map.Shard_map.epoch;
               })
      | None ->
          Metrics.incr t.c_stale_epoch;
          finish
            (P.Error
               {
                 code = P.Stale_epoch;
                 message = "forwarded to a shard holding no shard map";
               }))
  | Ok { P.deadline_ms; idem; request } -> (
      let deadline =
        match
          match deadline_ms with
          | Some _ -> deadline_ms
          | None -> t.config.default_deadline_ms
        with
        | Some ms -> Some (arrival +. (float_of_int ms /. 1000.))
        | None -> None
      in
      let idem_key =
        match idem with
        | Some { P.client_id; request_seq } -> Some (client_id, request_seq)
        | None -> None
      in
      let abort_idem () =
        match idem_key with
        | Some (client_id, seq) -> Catalog.dedup_abort t.cat ~client_id ~seq
        | None -> ()
      in
      let commit_idem bytes =
        match idem_key with
        | Some (client_id, seq) -> Catalog.dedup_commit t.cat ~client_id ~seq bytes
        | None -> ()
      in
      (* Claim the key.  A concurrent duplicate (same key in flight on
         another session) waits for the original to settle. *)
      let rec claim () =
        match idem_key with
        | None -> `Execute
        | Some (client_id, seq) -> (
            match Catalog.dedup_begin t.cat ~client_id ~seq with
            | Catalog.Fresh -> `Execute
            | Catalog.Replay bytes -> `Replay bytes
            | Catalog.Too_old -> `Too_old
            | Catalog.In_flight ->
                if expired deadline then `Expired
                else begin
                  Thread.delay 0.001;
                  claim ()
                end)
      in
      match claim () with
      | `Replay bytes ->
          (* Only settled non-error answers are committed to the window,
             so a replay always counts as an ok response. *)
          Metrics.incr t.c_dedup_hits;
          Metrics.observe t.h_latency (int_of_float ((now () -. arrival) *. 1e6));
          Metrics.incr t.c_ok;
          bytes
      | `Too_old ->
          finish
            (P.Error
               {
                 code = P.Bad_request;
                 message = "idempotency key below the dedup window";
               })
      | `Expired ->
          Metrics.incr t.c_timeouts;
          finish
            (P.Error
               {
                 code = P.Timed_out;
                 message = "deadline expired awaiting a duplicate in flight";
               })
      | `Execute -> (
          match degraded_reason t with
          | Some reason when is_mutation request ->
              abort_idem ();
              finish
                (P.Error
                   {
                     code = P.Degraded;
                     message = "server is read-only (degraded: " ^ reason ^ ")";
                   })
          | _ -> (
              match Admission.acquire ?deadline t.adm with
              | Admission.Shed ->
                  abort_idem ();
                  finish
                    (P.Error
                       {
                         code = P.Overloaded;
                         message =
                           Printf.sprintf
                             "load shed: %d in flight, queue of %d full"
                             t.config.max_in_flight t.config.max_queue;
                       })
              | Admission.Timed_out ->
                  abort_idem ();
                  finish
                    (P.Error
                       { code = P.Timed_out; message = "deadline expired in queue" })
              | Admission.Draining ->
                  abort_idem ();
                  finish
                    (P.Error
                       { code = P.Shutting_down; message = "server is draining" })
              | Admission.Admitted -> (
                  Fun.protect
                    ~finally:(fun () -> Admission.release t.adm)
                    (fun () ->
                      match
                        t.config.on_execute ();
                        if expired deadline then begin
                          abort_idem ();
                          Metrics.incr t.c_timeouts;
                          finish
                            (P.Error
                               {
                                 code = P.Timed_out;
                                 message = "deadline expired before execution";
                               })
                        end
                        else begin
                          let error, bytes =
                            match execute t request with
                            | Encoded bytes -> (false, bytes)
                            | Response resp ->
                                ( (match resp with P.Error _ -> true | _ -> false),
                                  P.encode_response resp )
                          in
                          (* Only settled, re-sendable answers enter the
                             window; errors release the key so a retry
                             can run again (and maybe succeed). *)
                          if error then abort_idem () else commit_idem bytes;
                          if expired deadline then begin
                            Metrics.incr t.c_timeouts;
                            finish
                              (P.Error
                                 {
                                   code = P.Timed_out;
                                   message = "deadline expired during execution";
                                 })
                          end
                          else begin
                            record ~error;
                            bytes
                          end
                        end
                      with
                      | bytes -> bytes
                      | exception e ->
                          (* A hook or internal bug must not leave the
                             key claimed forever. *)
                          abort_idem ();
                          raise e)))))

(* {1 Lifecycle}

   The listener, sessions and their threads live in {!Net}; this module
   supplies the payload handler and the admission drain. *)

let start ?(config = default_config) ?metrics cat =
  let reg = match metrics with Some m -> m | None -> Metrics.global () in
  let t =
    {
      config;
      cat;
      adm =
        Admission.create ~metrics:reg ~max_in_flight:config.max_in_flight
          ~max_queue:config.max_queue ();
      net = None;
      stopped = false;
      degraded = None;
      cluster = None;
      m = Mutex.create ();
      c_requests = Metrics.counter reg "server.requests";
      c_ok = Metrics.counter reg "server.responses.ok";
      c_err = Metrics.counter reg "server.responses.error";
      c_timeouts = Metrics.counter reg "server.timeouts";
      h_latency = Metrics.histogram reg "server.latency_us";
      h_pages = Metrics.histogram reg "server.range.pages";
      c_dedup_hits = Metrics.counter reg "server.dedup.hits";
      c_stale_epoch = Metrics.counter reg "server.stale_epoch";
      g_degraded = Metrics.gauge reg "server.degraded";
    }
  in
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
  t.net <-
    Some
      (Net.start ~config:net_config ~metrics:reg
         ~handle:(fun payload -> handle t payload)
         ());
  t

let stop t =
  Mutex.lock t.m;
  let already = t.stopped in
  t.stopped <- true;
  Mutex.unlock t.m;
  if not already then
    match t.net with
    | Some net ->
        (* Drain between acceptor shutdown and session teardown: new
           queries are refused, in-flight ones finish and answer. *)
        Net.stop
          ~drain:(fun () ->
            Admission.begin_drain t.adm;
            Admission.await_drain t.adm)
          net
    | None -> ()
