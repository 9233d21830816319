(** The cluster router: one coordinator process fronting N [sqp serve]
    shard nodes, each owning a contiguous z-range of the space.

    The router speaks the {e same} wire protocol as a single server —
    clients cannot tell the difference — and turns each request into
    sub-requests against the shards named by its versioned
    {!Sqp_server.Shard_map}:

    - {b Range reads} ([Range_search], [Live_range]): the box passes the
      shards' own bounds check ({!Sqp_server.Protocol.range_box}) first,
      so an out-of-grid box draws their [Bad_request] before any
      fan-out; it is then decomposed {e once}, whatever the stale-map
      retries, into a z-interval cover, and only the shards
      whose owned interval overlaps it are contacted
      ({!Sqp_zorder.Zrange.overlaps_interval}).  Shards own contiguous
      disjoint ranges in ascending order, and each returns its rows in z
      order, so concatenating the answers in shard order preserves the
      global z order with no merge work.
    - {b Plans} ([Query], [Analyze], [Explain]): broadcast to every
      shard, because a join's element rows live wherever their z
      intervals reach.  Exactness across shard cuts comes from
      {e boundary-element replication} (a shard's catalog keeps every
      element row whose z interval overlaps its range — see
      {!Sqp_server.Catalog.of_seeded}) plus a {e distinct} merge at the
      router: every overlapping pair is found by at least one shard, and
      cross-shard duplicates collapse.  This is sound only for plans
      whose root is the duplicate-eliminating [Project] and which
      contain no [Product]/[Natural_join] (those would need cross-shard
      pairs no single shard can see) and no root [Sort] (shard order
      cannot be stitched); anything else draws [Bad_request].
      [Analyze] answers stitch the per-shard rendered trees into one
      report — the per-shard breakdown of EXPLAIN ANALYZE.
    - {b Mutations} ([Insert], [Delete]): split by each point's z value
      and forwarded to the owning shard {e with the origin client's
      idempotency key} — the shard-side dedup windows then make the
      mutation exactly-once end to end, across router retries and
      client retries alike.  The combined [Ack] sums the per-shard
      [applied] counts and takes the highest [seq].
    - {b Broadcast admin} ([Create_index], [Refresh_stats], [Recover],
      [Health]): sent to every shard; answers are aggregated.

    {b Epoch fencing.}  Every forwarded sub-request travels in a
    [Forward] envelope stamped with the router's current map epoch; a
    shard holding a different epoch refuses with [Stale_epoch] and the
    router refetches/repushes maps and re-routes (bounded retries).
    This is what makes {!split} safe: requests racing an epoch flip
    cannot be answered by a shard that no longer owns the range.

    {b Rebalancing} ({!split}) moves the upper part of one shard's
    range to a fresh shard with the same chunked-copy + catch-up +
    atomic-flip shape as {!Sqp_btree.Live.rebuild_online}: the moving
    range's canonical element cover is copied chunk by chunk (each
    aligned element is both a z interval and a box, so [Live_range]
    reads it exactly), each chunk covering {e every} table the split
    names; before a chunk is read, all in-flight routed mutations are
    drained (a generation-counted gate), so no write can race the
    snapshot.  Mutations touching the in-flight chunk block briefly;
    mutations in the already-copied region are dual-written to the
    target {e idempotently} — the shadow write carries the origin
    client's idempotency key, so client retries and stale re-routes
    collapse in the target's dedup window.  The flip installs the new
    map (epoch + 1) and retires the dual-write gate in one critical
    section (a mutation routed under the new map is never also
    shadow-written), drains the stragglers, pushes the map to every
    shard, and deletes the moved rows from the source.  Reads routed
    under the old epoch are fenced off by the shards themselves. *)

type config = {
  host : string;  (** bind address *)
  port : int;  (** 0 picks an ephemeral port *)
  max_frame_bytes : int;
  idle_timeout_s : float option;
  frame_timeout_s : float option;
  session_io : (Unix.file_descr -> Sqp_server.Protocol.io) option;
      (** wrap client-facing session sockets (fault injection) *)
  shard_wrap : (Unix.file_descr -> Sqp_server.Protocol.io) option;
      (** wrap router→shard sockets (fault injection on the back side) *)
  connect_timeout : float;  (** bound on dialing a shard *)
  shard_attempts : int;  (** transport retries per shard sub-request *)
}

val default_config : config
(** [127.0.0.1:0], 8 MiB frames, no timeouts, 5 s connect timeout,
    4 transport attempts per shard call. *)

type t

val start :
  ?config:config ->
  ?metrics:Sqp_obs.Metrics.t ->
  space:Sqp_zorder.Space.t ->
  map:Sqp_server.Shard_map.t ->
  unit ->
  t
(** Push [map] to every shard it names (each learns its own entry
    index, hence its owned interval), then bind and serve.  [space]
    must be the shards' space — it drives box decomposition for
    fan-out pruning and z computation for mutation routing.  Metrics
    (default global registry): [cluster.requests], [cluster.fanout]
    (histogram: shards contacted per pruned read), [cluster.shards_skipped],
    [cluster.stale_retries], [cluster.epoch] gauge,
    [cluster.rebalance.chunks], [cluster.rebalance.rows_moved],
    [cluster.rebalance.dual_writes], [cluster.rebalance.active] gauge,
    plus the [cluster.sessions*]/[cluster.bad_frames] instruments of the
    underlying {!Sqp_server.Net}.
    @raise Failure if a shard cannot be reached or refuses the map.
    @raise Unix.Unix_error if the router address cannot be bound. *)

val port : t -> int

val map : t -> Sqp_server.Shard_map.t
(** The current routing truth (latest epoch). *)

val split :
  ?tables:string list ->
  t ->
  from_:int ->
  at:int ->
  host:string ->
  port:int ->
  (unit, string) result
(** [split t ~from_ ~at ~host ~port] moves the z range [\[at, hi\]] of
    entry [from_] (which keeps [\[lo, at - 1\]]) to the — already
    running, typically [--live-empty] — shard at [host:port], with the
    copy/catch-up/flip protocol described above.  [tables] (default
    [["L"]], the canonical serving catalog's ingest table) names the
    live tables to move; it must cover {e every} live table the shards
    serve — a gated mutation to a table outside the list aborts the
    split (map unflipped) rather than orphan that table's moved-range
    rows.  Serving continues throughout; only mutations touching the
    chunk being copied right now block.  [Error] (with the map
    unflipped) if the move is invalid, the target is unreachable, or a
    copy/dual-write failed; the target may then hold a partial copy
    and should be restarted before retrying. *)

val stop : t -> unit
(** Graceful: drain client sessions (via {!Sqp_server.Net.stop}), then
    close pooled shard connections.  Idempotent. *)
