(** The concurrent TCP query server.

    One acceptor thread turns connections into {e sessions} (one thread
    each, blocking frame I/O); every request then passes {!Admission}
    before it executes in the session's own thread — a wire plan through
    {!Sqp_relalg.Plan.run}, a range read streamed from the merge into
    its encoded answer ({!range_answer}, {!live_answer}) — sessions
    supply the concurrency, and the admission layer bounds how much of
    it a burst can claim.

    Session lifecycle: [accept] → read frame → decode → (admission) →
    execute → respond → read next frame … until clean EOF, a framing
    error, a session timeout, or server drain.  A payload that decodes
    to garbage draws a typed [Bad_request] {e response} and the session
    continues; a frame whose advertised length is unusable ends the
    session (the stream cannot be resynchronized).  No client input can
    raise past the session loop — the fuzz suite in
    [test/test_protocol.ml], the malformed-frame cases in
    [test/test_server.ml] and the fault-injected torture in
    [test/test_chaos.ml] hold it to that.

    {b Exactly-once mutations.}  Requests carrying a protocol v2
    idempotency key pass through the catalog's dedup window
    ({!Catalog.dedup_begin}): a replayed mutation — the client resent
    because the connection died before the answer arrived — returns the
    {e original} encoded [Ack] byte for byte instead of applying the
    batch again.  Admission failures (shed, queue timeout, draining,
    degraded rejection) release the key so a later retry can still
    succeed; a mutation that applied but overshot its deadline commits
    its [Ack] to the window {e before} answering [Timed_out], so the
    retry is answered with the truth.

    {b Degraded mode.}  [ENOSPC] or detected corruption while executing
    a mutation flips the server read-only: reads keep serving, mutations
    draw the typed [Degraded] error, health reports
    [mode = "degraded: <reason>"].  The [Recover] admin frame reopens
    the poisoned live-table stores (journal recovery) and resumes
    mutations if every store comes back; a restart does the same.

    {!stop} drains gracefully: stop accepting, reject new queries with
    [Shutting_down], let in-flight queries finish and answer, then
    close sessions and join every thread.  [sqp serve] wires SIGTERM /
    SIGINT to exactly this, so Ctrl-C and orchestrated shutdowns are
    loss-free. *)

type config = {
  host : string;  (** bind address, default ["127.0.0.1"] *)
  port : int;  (** 0 picks an ephemeral port (see {!port}) *)
  max_in_flight : int;  (** concurrent query executions *)
  max_queue : int;  (** waiters beyond that before shedding *)
  max_frame_bytes : int;  (** per-frame payload cap *)
  default_deadline_ms : int option;
      (** applied when a request carries no deadline *)
  idle_timeout_s : float option;
      (** close a session that starts no frame for this long (reaps
          leaked/forgotten connections); default [None] = wait forever *)
  frame_timeout_s : float option;
      (** bound reading one frame's payload and writing one response —
          the slow-loris guard: a peer dribbling bytes cannot pin a
          session thread; default [None] *)
  session_io : (Unix.file_descr -> Protocol.io) option;
      (** wrap every session's socket I/O, e.g. {!Faulty_net.wrap} for
          chaos tests; default [None] = {!Protocol.io_of_fd} *)
  on_execute : unit -> unit;
      (** test/fault-injection hook, run while holding an admission slot
          just before plan execution; default [ignore] *)
}

val default_config : config
(** [127.0.0.1:0], 8 in flight, queue 32, 8 MiB frames,
    no default deadline, no session timeouts, honest socket I/O. *)

type t

val start : ?config:config -> ?metrics:Sqp_obs.Metrics.t -> Catalog.t -> t
(** Bind, listen and spawn the acceptor.
    [metrics] (default {!Sqp_obs.Metrics.global}) receives the serving
    instruments: [server.requests], [server.responses.{ok,error}],
    [server.sessions], [server.sessions.aborted] (connection reset /
    stalled mid-frame / write failure), [server.sessions.idle_closed],
    [server.dedup.hits], [server.shed], [server.timeouts],
    [server.bad_frames] counters; [server.in_flight],
    [server.queue_depth], [server.sessions.active], [server.degraded]
    gauges; [server.latency_us], [server.queue_wait_us] histograms.
    @raise Unix.Unix_error if the address cannot be bound. *)

val port : t -> int
(** The actual listening port (useful with [port = 0]). *)

val stop : t -> unit
(** Graceful drain, as described above.  Idempotent; blocks until every
    session has been joined. *)

(** {1 Streamed range answers}

    What the server answers [Range_search] and [Live_range] with, once
    {!Protocol.range_box} has accepted the bounds.  Each answer is one
    encoded response payload, written once into a string of exactly its
    size and byte-identical to [Protocol.encode_response (Rows r)] for
    the relation [r] of its rows: the Section 3.3 merge emits each row
    as it passes, [owned] filters it, and a kept row is held as a
    reference (one word) until the row count is known.  Beyond the
    payload, the merge's key ranges and one word a row, an answer
    allocates O(1) words: nothing per scanned entry, per jump or per
    decomposition element.

    [owned = (zlo, zhi)] keeps only the rows whose z value
    ({!Shard_map.z_of_point}) lies in that interval, the rows a shard
    owns ([(1, 0)] keeps none); without it every row is kept. *)

val range_answer : ?owned:int * int -> Catalog.t -> Sqp_geom.Box.t -> string
(** Relation ["range"], columns [x0 .. x(k-1)] of type [TInt], one row a
    point of {!Catalog.prepared_points} inside the box, in z order (the
    points of {!Sqp_core.Range_search.iter_skip}). *)

val live_answer :
  ?owned:int * int -> int Sqp_btree.Live.t -> Sqp_geom.Box.t -> string
(** Relation ["live"], columns [id, x0 .. x(k-1)], one row an entry of a
    fresh snapshot of the table inside the box, in z order (the entries
    of {!Sqp_btree.Live.range_iter}). *)
