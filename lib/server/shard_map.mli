(** The shard map: which z range lives where — versioned, serializable
    data, not configuration.

    A cluster partitions the full-resolution z keyspace of one
    {!Sqp_zorder.Space} (which must satisfy {!Sqp_zorder.Zrange.usable},
    i.e. at most 61 total bits) into contiguous, disjoint, ascending
    [entries], each owned by one [sqp serve] endpoint.  The [epoch]
    counts map changes: every rebalance installs a successor map with
    [epoch + 1], and shards reject forwarded requests stamped with any
    other epoch ({!Protocol} error [Stale_epoch]) — the fencing that
    keeps a stale router or cached client from writing to the old owner
    of a moved range.

    Maps travel on the wire (request tags 12/13, response tag 7) via the
    {!Sqp_relalg.Wire} cursor codecs, so they are length-safe against
    hostile bytes like every other frame body. *)

type entry = {
  zlo : int;  (** first owned z value, inclusive *)
  zhi : int;  (** last owned z value, inclusive *)
  host : string;
  port : int;
}

type t = {
  epoch : int;  (** monotone map version; starts at 1 *)
  entries : entry list;  (** ascending, disjoint, non-empty *)
}

val make : epoch:int -> entry list -> t
(** Validates: non-empty, every [zlo <= zhi], contiguous coverage from
    z = 0 (the first entry starts at 0 and each entry's [zlo] is its
    predecessor's [zhi + 1] — so every z value up to the last [zhi] has
    exactly one owner), [epoch >= 1].
    @raise Invalid_argument otherwise. *)

val even_ranges : Sqp_zorder.Space.t -> int -> (int * int) list
(** The canonical even split of the space's z interval
    [0, 2^total_bits - 1] into [n] contiguous ranges — what
    [sqp serve --shard I/N] and [sqp route] both compute, so shard
    catalogs and the router's map agree by construction.
    @raise Invalid_argument if [n < 1] or the space is not
    {!Sqp_zorder.Zrange.usable}. *)

val even : Sqp_zorder.Space.t -> (string * int) list -> t
(** Epoch-1 map assigning {!even_ranges} to the endpoints in order. *)

val owner : t -> int -> entry option
(** The entry owning z value [z], if any. *)

val overlapping : t -> (int * int) list -> (int * entry) list
(** Entries (with their index) whose range intersects any of the
    (ascending, disjoint) z intervals — the fan-out set for a query
    whose decompose cover merged to those intervals. *)

val to_string : t -> string
(** One human-readable line per entry, prefixed by the epoch. *)

val write : Buffer.t -> t -> unit

val read : Sqp_relalg.Wire.cursor -> t
(** @raise Sqp_relalg.Wire.Corrupt on malformed bytes (including maps
    that fail {!make}'s validation). *)

val z_of_point : Sqp_zorder.Space.t -> int array -> int
(** Full-resolution z value of a point — the mutation-routing key and
    the owned-interval filter's key — read off the int interleave
    ({!Sqp_zorder.Interleave.rank}), with no element or bitstring built.
    @raise Invalid_argument if the space is not usable or the point is
    outside the grid. *)
