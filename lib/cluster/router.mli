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
    - {b Mutations} ([Insert], [Delete]): grouped by each point's z
      value under the current map and forwarded to the owning shards
      {e with the origin client's idempotency key} — the shard-side
      dedup windows then make the mutation exactly-once end to end,
      across router retries and client retries alike.  The combined
      [Ack] sums the per-shard [applied] counts and takes the highest
      [seq].
    - {b Broadcast admin} ([Create_index], [Refresh_stats], [Recover],
      [Health]): sent to every shard; answers are aggregated.

    {b Epoch fencing.}  Every forwarded sub-request travels in a
    [Forward] envelope stamped with the router's current map epoch; a
    shard holding a different epoch refuses with [Stale_epoch] and the
    router refetches/repushes maps and re-routes (bounded retries).
    The map changes only when an operator pushes one: a
    [Shard_map_set] frame sent to the router installs it (an older
    epoch draws [Stale_epoch]) and pushes it to every shard, and a map
    pushed straight to the shards reaches the router through that
    resync.  Requests racing a map change cannot be answered under the
    old map by a shard that already holds the new one. *)

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
    [cluster.stale_retries], [cluster.epoch] gauge, plus the
    [cluster.sessions*]/[cluster.bad_frames] instruments of the
    underlying {!Sqp_server.Net}.
    @raise Failure if a shard cannot be reached or refuses the map.
    @raise Unix.Unix_error if the router address cannot be bound. *)

val port : t -> int

val map : t -> Sqp_server.Shard_map.t
(** The current routing truth (latest epoch). *)

val stop : t -> unit
(** Graceful: drain client sessions (via {!Sqp_server.Net.stop}), then
    close pooled shard connections.  Idempotent. *)
