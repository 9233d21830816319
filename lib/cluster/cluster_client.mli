(** A map-caching cluster client: fetch the {!Sqp_server.Shard_map}
    once from the router, then send range reads {e directly} to the
    owning shards, skipping the router hop entirely.

    The cached map is a lease without a clock: every direct sub-request
    travels in a [Forward] envelope stamped with the cached epoch, so a
    shard whose map has moved on (an operator pushed a new epoch)
    refuses with [Stale_epoch] instead of answering under a map it no
    longer holds.  On that signal the client refetches the map from the
    router and retries — the {e stale-epoch rejection and refetch}
    protocol.  Everything that is not a range read (plans, mutations,
    admin) still goes through the router, which owns the scatter and
    the merge. *)

type t

val connect :
  ?host:string ->
  ?connect_timeout:float ->
  router_port:int ->
  unit ->
  t
(** Dial the router, fetch and cache its shard map.
    @raise Unix.Unix_error if the router is unreachable.
    @raise Failure if the router has no shard map. *)

val epoch : t -> int
(** Epoch of the cached map. *)

val refetches : t -> int
(** How many times a [Stale_epoch] rejection forced a map refetch —
    observable proof the fencing protocol ran. *)

val range_search :
  ?deadline_ms:int ->
  t ->
  space:Sqp_zorder.Space.t ->
  lo:int array ->
  hi:int array ->
  Sqp_relalg.Relation.t Sqp_server.Client.reply
(** Decompose the box, contact only the shards whose owned z interval
    overlaps it (direct connections, epoch-fenced), concatenate the
    z-ordered per-shard rows in shard order.  Retries through a map
    refetch on [Stale_epoch], then gives up with the typed error. *)

val close : t -> unit
(** Close the router connection and every cached shard connection.
    Idempotent. *)
