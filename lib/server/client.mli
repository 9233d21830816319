(** A blocking, self-healing client for the {!Protocol} wire format —
    the library under [sqp shell], the router's shard connections and
    the perfbench load generator, and the far end the end-to-end and
    chaos tests drive.

    One connection carries one request at a time (the protocol has no
    frame multiplexing); for concurrency, open one client per thread.

    {b Retries and exactly-once.}  A torn connection (reset, EOF
    mid-frame, EPIPE) does not fail the call: the client reconnects and
    retries under jittered exponential backoff — until the caller's
    [deadline_ms] budget runs out when one was given, else up to
    [max_attempts] attempts.  Every retry of a mutation ([insert],
    [delete], [create_index]) carries the {e same} idempotency key
    [(client_id, request_seq)], so the server's dedup window applies the
    batch at most once and answers the replay with the original [Ack] —
    a retried insert that actually landed the first time is {e not}
    applied twice.  [Overloaded] / [Shutting_down] answers are also
    retried, but only while a deadline budget remains (without one they
    surface immediately).

    Failures are ordinary values, never exceptions: {!Remote} carries
    the server's typed error, {!Transport} what the socket did and how
    many attempts were spent.  Only {!connect} itself still raises
    ([Unix.Unix_error]) — an unreachable server at startup is a
    configuration error, not a retryable condition. *)

type t

type error =
  | Remote of { code : Protocol.error_code; message : string }
      (** the server answered with a typed [Error] response *)
  | Transport of { attempts : int; message : string }
      (** the transport failed and retries were exhausted; [attempts]
          counts tries of this one logical call *)

val error_to_string : error -> string
(** One human-readable line, e.g.
    ["transport failure after 4 attempts: read failed: ECONNRESET"]. *)

type 'a reply = ('a, error) result

val connect :
  ?host:string ->
  ?client_id:int ->
  ?connect_timeout:float ->
  ?max_attempts:int ->
  ?wrap:(Unix.file_descr -> Protocol.io) ->
  port:int ->
  unit ->
  t
(** [host] defaults to ["127.0.0.1"].  [client_id] (default: a fresh
    collision-unlikely random id) names this client in idempotency keys
    — pin it to make chaos runs deterministic.  [connect_timeout]
    (default 5 s, bounded to (0, 120]) caps {e every} dial this client
    performs — the initial one and each reconnect — via a non-blocking
    connect, so a black-holed endpoint fails with [ETIMEDOUT] instead of
    hanging for the kernel's SYN-retry minutes; on the reconnect path
    the timeout surfaces as a typed {!Transport} error like any other
    dial failure.  [max_attempts] (default 4, min 1) bounds transport
    retries for calls {e without} a deadline.  [wrap] interposes on
    every socket this client opens (reconnects included), e.g.
    {!Faulty_net.wrap} for fault injection.
    @raise Unix.Unix_error if the connection is refused or times out.
    @raise Invalid_argument if [max_attempts < 1] or [connect_timeout]
    is out of range. *)

val close : t -> unit
(** Idempotent. *)

val with_connect :
  ?host:string ->
  ?client_id:int ->
  ?connect_timeout:float ->
  ?max_attempts:int ->
  ?wrap:(Unix.file_descr -> Protocol.io) ->
  port:int ->
  (t -> 'a) ->
  'a
(** Connect, run, always close. *)

val client_id : t -> int
(** The id this client stamps into idempotency keys. *)

val retries : t -> int
(** Attempts beyond the first across all calls so far (transport retries
    plus [Overloaded]/[Shutting_down] waits). *)

val reconnects : t -> int
(** Connections re-dialed after the initial one. *)

val call :
  ?deadline_ms:int ->
  ?idem:Protocol.idem ->
  t ->
  Protocol.request ->
  Protocol.response reply
(** Send one request and wait for its response, retrying as described
    above.  [deadline_ms] is the total budget for the logical call; each
    attempt ships the {e remaining} budget so the server never spends
    time the caller no longer has.  Mutation requests are automatically
    assigned their idempotency key; [idem] substitutes an explicit one —
    how a proxy (e.g. the cluster router's rebalance dual-writes) keys a
    write with the {e origin} client's identity so the server's dedup
    window collapses replays from either party.  [idem] is ignored on
    non-mutation requests.  The response is never [Protocol.Error] —
    typed errors come back as [Error (Remote _)]. *)

(** {1 Typed conveniences}

    Each returns [Error (Remote _)] when the server answered with a
    typed error, [Error (Transport _)] when the transport gave out (or
    the response kind does not match the request — a protocol
    violation). *)

val range_search :
  ?deadline_ms:int -> t -> lo:int array -> hi:int array ->
  Sqp_relalg.Relation.t reply

val query :
  ?deadline_ms:int -> t -> Sqp_relalg.Wire.plan -> Sqp_relalg.Relation.t reply

val explain : ?deadline_ms:int -> t -> Sqp_relalg.Wire.plan -> string reply

val analyze :
  ?deadline_ms:int -> t -> Sqp_relalg.Wire.plan ->
  (string * Sqp_relalg.Relation.t) reply
(** [(rendered EXPLAIN ANALYZE tree, result rows)]. *)

val insert :
  ?deadline_ms:int -> ?idem:Protocol.idem -> t -> table:string ->
  (int array * int) list -> (int * int) reply
(** Append [(point, id)] entries to a live table; [(applied, seq)].
    Exactly-once under retries.  [idem] overrides the generated
    idempotency key (see {!call}). *)

val delete :
  ?deadline_ms:int -> ?idem:Protocol.idem -> t -> table:string ->
  int array list -> (int * int) reply
(** Remove the first entry at each exact point; [applied] counts the
    points actually present.  Exactly-once under retries.  [idem]
    overrides the generated idempotency key (see {!call}). *)

val create_index : ?deadline_ms:int -> t -> table:string -> (int * int) reply
(** Online index rebuild; [(entry count of the finished index, seq)]. *)

val refresh_stats : ?deadline_ms:int -> t -> string reply
(** Compat: send a [Refresh_stats] frame (tag 10).  The server keeps
    no statistics, so it changes nothing and answers a constant text.
    It stays only because the serving benchmark's set-up sends it, and
    goes, with tag 10, at the next change to the benchmark (ROADMAP
    item 1). *)

val live_range :
  ?deadline_ms:int -> t -> table:string -> lo:int array -> hi:int array ->
  Sqp_relalg.Relation.t reply
(** Snapshot range query over a live table: rows [(id, x0..xk)] in z
    order. *)

val shard_map_get : ?deadline_ms:int -> t -> Shard_map.t reply
(** Fetch the node's current shard map ([Error (Remote
    { code = Unknown_relation; _ })] if none is installed) — how a
    cluster client bootstraps and how it refreshes after
    [Stale_epoch]. *)

val shard_map_set :
  ?deadline_ms:int -> t -> map:Shard_map.t -> self:int -> (int * int) reply
(** Install a shard map on a node; [self] is the node's own entry index
    (or [-1] for map-only holders such as the router's seed).  Answers
    [(entries, epoch)]; a map older than the node's current epoch is
    refused with [Remote { code = Stale_epoch; _ }]. *)

val forward :
  ?deadline_ms:int -> t -> epoch:int -> payload:string -> Protocol.response reply
(** Router-to-shard envelope: deliver an already-encoded request
    [payload] fenced at [epoch].  The response is whatever the inner
    request produced; an epoch mismatch comes back as
    [Remote { code = Stale_epoch; _ }] {e before} the payload is even
    decoded. *)

val health : t -> Protocol.health reply
(** Liveness, load and {e mode} (["serving"] / ["draining"] /
    ["degraded: <reason>"]). *)

val recover : t -> string reply
(** Ask a degraded server to reopen its poisoned stores and resume
    mutations; [Error (Remote { code = Degraded; _ })] if they are
    still sick. *)
