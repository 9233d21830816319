(** What a server instance serves: a space, a point set for range
    queries, named relations that wire plans may [Scan], and live
    tables that absorb insert/delete traffic.

    The catalog's shape is built once at startup: the binding of names
    is immutable and concurrent sessions share it (stored relations
    latch their buffer pools internally — see
    {!Sqp_relalg.Stored.scan}).  The points are held once for serving,
    in z order, in the frozen tree {!point_tree}: nothing is built on
    first use.  Live tables are the mutable exception: their
    {e contents} change under serving traffic, with writer
    serialization and snapshot reads handled inside
    {!Sqp_btree.Live}. *)

type t

val make :
  ?lives:(string * int Sqp_btree.Live.t) list ->
  ?shard:int * int ->
  space:Sqp_zorder.Space.t ->
  points:(int * Sqp_geom.Point.t) list ->
  relations:(string * Sqp_relalg.Plan.t) list ->
  unit ->
  t
(** [points] (id, point) back [Range_search] requests: they are
    bulk-loaded into {!point_tree}, and also published as relation
    ["P"] (id, z, coordinates, in the order given) beside [relations],
    which resolve the other [Scan name] leaves of wire plans.  [lives]
    binds mutable tables for the insert/delete/create-index frames
    (payloads are row ids).  [shard] records the owned z interval when
    this catalog is one cluster shard's slice (see {!shard_range}).
    @raise Invalid_argument on a point outside [space]. *)

val of_seeded : ?shard:int * int -> Sqp_workload.Seeded.t -> t
(** The canonical serving catalog, built from the shared seeded
    workload: ["P"] — the point relation; ["R"] / ["S"] — the two
    spatial-join sides, decomposed and materialized onto paged stored
    relations with attributes [(rid, zr)] / [(sid, zs)], exactly as
    {!Sqp_relalg.Query.stored_overlap_plan} lays them out; and ["L"] —
    a live ingest table pre-seeded with the same points as ["P"]
    (payload = id).  The points are bulk-loaded once
    ({!Sqp_btree.Live.of_entries}) into the table that becomes ["L"],
    and {!point_tree} is that table's first snapshot: the two share one
    tree until ["L"]'s writes path-copy away from it.

    [shard (zlo, zhi)] builds the z-range-restricted slice a cluster
    shard serves, {e locally from the same deterministic seeds} — no
    data shipping at bring-up.  Points (pixels) are kept iff their z
    value lies in the interval; join-side element rows are kept iff
    their z {e interval} overlaps it, so an element spanning a shard
    cut is replicated to every shard it overlaps (the boundary-element
    replication that keeps scatter-gather joins exact).
    @raise Invalid_argument if [shard] is inverted or starts below 0. *)

val space : t -> Sqp_zorder.Space.t

val shard_range : t -> (int * int) option
(** The owned z interval this catalog was sliced to, if any. *)

val names : t -> string list
(** Bound relation names, sorted. *)

val resolve : t -> string -> Sqp_relalg.Plan.t option

val live_names : t -> string list
(** Bound live-table names, sorted. *)

val live : t -> string -> int Sqp_btree.Live.t option

val point_tree : t -> int Sqp_btree.Live.snapshot
(** The catalog's points (payload = id) in a frozen tree, keyed by z
    value with leaves of 20 entries (the paper's page capacity).  Every
    served [Range_search] is {!Sqp_btree.Live.range_iter} on it
    ({!Server.range_answer}); writes to a live table never reach it. *)

val prepared_points : t -> int Sqp_core.Range_search.prepared
(** The same points as an in-memory z-sorted sequence for
    {!Sqp_core.Range_search}, prepared from {!point_tree}'s entries on
    each call.  No server path reads it: it stays for the serving
    benchmark's replay, and goes at the next change to the benchmark
    (ROADMAP item 1). *)

(** {1 Idempotency dedup window}

    The exactly-once half of the retry contract.  Every keyed request
    (protocol v2 idempotency key [(client_id, request_seq)]) passes
    through {!dedup_begin} before execution; the window remembers the
    {e encoded response bytes} of completed requests so a replay is
    answered byte-for-byte without re-executing — a retried [Insert]
    cannot double-apply.  Bounded per client (128 seqs — older keys age
    out as the client's counter advances) and across clients (256, LRU
    evicted).  All operations are mutex-guarded and O(1) amortized. *)

type dedup_outcome =
  | Fresh  (** first sighting: execute, then {!dedup_commit} or {!dedup_abort} *)
  | Replay of string  (** already answered: the original encoded response *)
  | In_flight  (** same key currently executing (concurrent duplicate) *)
  | Too_old  (** below the window — answer [Bad_request] *)

val dedup_begin : t -> client_id:int -> seq:int -> dedup_outcome
(** Claim a key.  [Fresh] obliges the caller to eventually
    {!dedup_commit} (cacheable outcome) or {!dedup_abort} (admission
    failure — the client may retry and succeed later). *)

val dedup_commit : t -> client_id:int -> seq:int -> string -> unit
(** Record the encoded response for a [Fresh] key. *)

val dedup_abort : t -> client_id:int -> seq:int -> unit
(** Release a [Fresh] key without an answer (the request was shed,
    timed out pre-execution, or rejected in degraded mode). *)

(** {1 Degraded-mode recovery} *)

val recover_lives : t -> (string * exn) list
(** Try {!Sqp_btree.Live.recover} on every live table; the tables that
    {e still} fail, with their errors (empty list = fully recovered). *)

(** {1 Statistics (compat)}

    The catalog keeps no statistics: no plan and no answer would
    depend on them.  These two names stay only because the serving
    benchmark's replay calls them, and go at the next change to the
    benchmark (ROADMAP item 1). *)

val analyze : t -> unit
(** Compat (ROADMAP item 1): does nothing. *)

val stats : t -> Sqp_optimizer.Optimizer.stats option
(** Compat (ROADMAP item 1): always [None]. *)

(** {1 Plans} *)

type range_access =
  | Direct of Sqp_optimizer.Cost.range_alternative
      (** run the Section 3.3 merge over the exact cover *)
  | Planned  (** never returned *)

val range_access : t -> lo:int array -> hi:int array -> range_access
(** Always [Direct { method_ = Skip }]: every server answers every range
    on the one Section 3.3 merge over {!point_tree}, so there is
    nothing to decide.  No server path calls this.  It and
    {!Sqp_optimizer.Cost.range_alternative} stay only because the
    serving benchmark's replay matches on them, and go at the next
    change to the benchmark (ROADMAP item 1); [Planned] and
    [Cost.Plain] are never returned.
    @raise Invalid_argument on the bounds {!Protocol.range_box} refuses:
    the wrong dimensionality, outside the grid, or inverted. *)

val range_plan : t -> lo:int array -> hi:int array -> Sqp_relalg.Plan.t
(** The Section 4 range-query script as a plan: decompose the box
    exactly, spatial-join the cover with the point relation on z,
    project the coordinates.  The server does not run it; its rows are
    the ones the server answers with, which makes it the in-process
    oracle of the server tests.
    @raise Invalid_argument on the bounds {!Protocol.range_box} refuses:
    the wrong dimensionality, outside the grid, or inverted. *)

val overlap_plan : t -> Sqp_relalg.Plan.t
(** The canonical join over ["R"] and ["S"]: candidate overlapping
    object-id pairs [(rid, sid)] — the same plan {!of_seeded} clients
    send as [Project ["rid"; "sid"] (Spatial_join ...)].
    @raise Invalid_argument if the catalog lacks ["R"] or ["S"]. *)

val health_detail : t -> bool * string
(** A cheap self-check: every named relation's plan must produce a
    schema (catches catalog misconfiguration); reports names and
    cardinality estimates.  [(healthy, human-readable summary)]. *)
