(** Named counters, gauges and histograms, with domain-safe accumulation
    and mergeable snapshots.

    A {!t} is a registry: metrics are created (or re-found) by name, and
    every update is an [Atomic] operation, so concurrent threads and
    domains can bump the same registry — or each can own a private
    registry whose {!snapshot}s are {!merge}d into one total afterwards.
    [merge] is associative and commutative (the [test_obs] suite checks
    this across real domains), so merging in any grouping or order
    yields the same totals. *)

type t
(** A metric registry. *)

val create : unit -> t
(** A fresh, empty registry. *)

val global : unit -> t
(** The ambient registry used by library instrumentation (created on
    first use; one per process). *)

(** {1 Instruments} *)

type counter
(** A monotonically increasing integer. *)

val counter : t -> string -> counter
(** Find or create the counter [name].
    @raise Invalid_argument if [name] exists with a different kind. *)

val incr : counter -> unit
(** Add 1. *)

val add : counter -> int -> unit
(** Add [n] (negative [n] is allowed but discouraged). *)

val counter_value : counter -> int
(** Current value. *)

type gauge
(** A point-in-time integer level (e.g. a stack depth); merging takes
    the maximum, so a merged gauge reads as a high-water mark. *)

val gauge : t -> string -> gauge
(** Find or create the gauge [name].
    @raise Invalid_argument if [name] exists with a different kind. *)

val set_gauge : gauge -> int -> unit
(** Set the level. *)

val record_max : gauge -> int -> unit
(** Raise the level to [n] if [n] is higher (atomic high-water mark). *)

val gauge_value : gauge -> int
(** Current level. *)

type histogram
(** Power-of-two bucketed distribution of non-negative integers, with
    exact count and sum. *)

val histogram : t -> string -> histogram
(** Find or create the histogram [name].
    @raise Invalid_argument if [name] exists with a different kind. *)

val observe : histogram -> int -> unit
(** Record one observation (negative values clamp to 0). *)

(** {1 Snapshots} *)

type reading =
  | Counter_v of int
  | Gauge_v of int
  | Histogram_v of { count : int; sum : int; buckets : (int * int) list }
      (** [buckets]: (inclusive upper bound, occupancy), non-empty
          buckets only, ascending. *)

type snapshot = (string * reading) list
(** Name-sorted readings — a consistent-enough copy of a registry (each
    metric is read atomically; the set is not a cross-metric
    transaction). *)

val snapshot : t -> snapshot
(** Read every metric of the registry. *)

val merge : snapshot -> snapshot -> snapshot
(** Combine two snapshots: counters add, gauges max, histograms add
    pointwise.  Associative and commutative.
    @raise Invalid_argument if the same name has different kinds. *)

val merge_all : snapshot list -> snapshot
(** Fold of {!merge} over the empty snapshot. *)

val reset : t -> unit
(** Zero every metric (instrument handles stay valid). *)

(** {1 Rendering} *)

val to_text : snapshot -> string
(** One ["name value"] line per metric; histograms render count, sum,
    mean and their non-empty buckets. *)

val to_json : snapshot -> string
(** The snapshot as a JSON object keyed by metric name. *)
