(** What a server instance serves: a space, a point set for range
    queries, named relations that wire plans may [Scan], and live
    tables that absorb insert/delete traffic.

    The catalog's shape is built once at startup: the binding of names
    is immutable and concurrent sessions share it (stored relations
    latch their buffer pools internally — see
    {!Sqp_relalg.Stored.scan}).  Live tables are the mutable exception:
    their {e contents} change under serving traffic, with writer
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
(** [points] backs [Range_search] requests; [relations] resolves the
    [Scan name] leaves of wire plans.  The points are also published as
    relation ["P"] (id, z, coordinates) unless [relations] already
    binds that name.  [lives] binds mutable tables for the
    insert/delete/create-index frames (payloads are row ids).  [shard]
    records the owned z interval when this catalog is one cluster
    shard's slice (see {!shard_range}). *)

val of_seeded :
  ?shard:int * int ->
  ?live_empty:bool ->
  Sqp_workload.Seeded.t ->
  t
(** The canonical serving catalog, built from the shared seeded
    workload: ["P"] — the point relation; ["R"] / ["S"] — the two
    spatial-join sides, decomposed and materialized onto paged stored
    relations with attributes [(rid, zr)] / [(sid, zs)], exactly as
    {!Sqp_relalg.Query.stored_overlap_plan} lays them out; and ["L"] —
    a live ingest table pre-seeded with the same points as ["P"]
    (payload = id).

    [shard (zlo, zhi)] builds the z-range-restricted slice a cluster
    shard serves, {e locally from the same deterministic seeds} — no
    data shipping at bring-up.  Points (pixels) are kept iff their z
    value lies in the interval; join-side element rows are kept iff
    their z {e interval} overlaps it, so an element spanning a shard
    cut is replicated to every shard it overlaps (the boundary-element
    replication that keeps scatter-gather joins exact).  [live_empty]
    starts ["L"] with no entries instead of the seeded points — how a
    rebalance target begins life. *)

val space : t -> Sqp_zorder.Space.t

val shard_range : t -> (int * int) option
(** The owned z interval this catalog was sliced to, if any. *)

val names : t -> string list
(** Bound relation names, sorted. *)

val resolve : t -> string -> Sqp_relalg.Plan.t option

val live_names : t -> string list
(** Bound live-table names, sorted. *)

val live : t -> string -> int Sqp_btree.Live.t option

val prepared_points : t -> int Sqp_core.Range_search.prepared
(** The z-sorted point sequence every served range request merges
    against (payload = row id): the server streams
    {!Sqp_core.Range_search.iter_skip} over it into its answer
    ({!Server.range_answer}), with or without statistics.  Built lazily
    on first use, then shared. *)

val point_index : t -> int Sqp_btree.Zindex.t
(** A front-coded packed {!Sqp_btree.Zindex} over the same points
    (payload = row id), built lazily on first use: {!page_estimate}
    (from [sqp query --costs]) is its only serving-side reader, so a
    server that never estimates pages never builds it.  Its measured
    entries-per-page is the density that recalibrates the page cost
    model. *)

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

(** {1 Statistics}

    The catalog's only mutable metadata: optimizer statistics written
    by {!analyze}, mutex-guarded and safe to touch from concurrent
    sessions. *)

val analyze : t -> Sqp_optimizer.Stats.t
(** Run the ANALYZE pass: execute every named relation's plan once,
    build per-relation row counts and z-prefix histograms
    ({!Sqp_optimizer.Stats.analyze}), record live-table row counts,
    store the result as the catalog's current statistics and return
    it.  Until this has run, {!stats} is [None] and every serving path
    falls back to the statistics-free behavior. *)

val stats : t -> Sqp_optimizer.Stats.t option
(** The statistics from the most recent {!analyze}, if any. *)

(** {1 Plans} *)

val range_decision :
  t -> lo:int array -> hi:int array -> Sqp_optimizer.Cost.range_alternative list option
(** The costed range-search alternatives for this box under the current
    statistics (ascending direct-kernel cost), or [None] before the
    first {!analyze}.  The cost model's view only: the server does not
    call it (see {!range_access}). *)

(** {1 Page cost recalibration} *)

type page_estimate = {
  rows : int;  (** points in the packed index *)
  entries_per_page : float;  (** measured front-coded density *)
  compression_ratio : float;  (** vs fixed-width at the same byte budget *)
  fixed_pages : int;  (** pages a fixed-width layout would need *)
  compressed_pages : int;  (** data pages the packed index actually has *)
  fixed_predicted : float;
      (** 5.3.1 block-model pages for the box, fixed-width page count *)
  learned_predicted : float;
      (** same prediction at the measured (compressed) density *)
}

val page_estimate : t -> lo:int array -> hi:int array -> page_estimate option
(** The page cost model before and after recalibration for one range
    box: {!Sqp_optimizer.Cost.predicted_range_pages} evaluated at the
    fixed-width page count and again at the entries-per-page measured
    on the front-coded point index ({!point_index}, built by the first
    call).  [None] until {!analyze} has run. *)

type range_access =
  | Direct of Sqp_optimizer.Cost.range_alternative
      (** run the Section 3.3 merge (plain or skip, per the
          alternative) directly on {!prepared_points} — exact cover *)
  | Planned
      (** run {!range_plan} through the plan executor (also the
          statistics-free fallback) *)

val range_access : t -> lo:int array -> hi:int array -> range_access
(** The cost model's access-path decision for one range query: the
    cheapest exact alternative on the direct kernel vs the cheapest
    decompose budget under {!Sqp_optimizer.Cost.plan_path_cost} — the
    two executors have different constants, which is exactly what the
    latter models.

    The server does not call it.  Every served range request runs the
    exact cover on {!Sqp_core.Range_search.iter_skip} over
    {!prepared_points}, with or without statistics, so no request pays
    for this decision.  It stays for the callers that report or replay
    the model: [sqp bench-optimizer], the optimizer tests and the
    serving benchmark's replay. *)

val range_plan : t -> lo:int array -> hi:int array -> Sqp_relalg.Plan.t
(** The Section 4 range-query script as a plan: decompose the box,
    spatial-join it with the point relation on z, project the
    coordinates.  The server does not run it (see {!range_access}); its
    rows are the ones the server answers with, which makes it the
    in-process oracle of the server tests.  With statistics present, the decompose budget is the
    cheapest of {!range_decision}'s alternatives; a coarsened cover gets
    an exact refine [Select] between the join and the projection, so the
    result rows are identical at every budget.  Without statistics the
    cover is pixel-exact and needs no refine.
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
