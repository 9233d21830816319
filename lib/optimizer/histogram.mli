(** Equi-width z-prefix histograms — the statistic behind every
    selectivity estimate in the optimizer.

    A histogram over a z-valued column partitions z space by the first
    [prefix_bits] bits of each value: bucket [i] covers exactly the
    element whose z value is the [prefix_bits]-bit encoding of [i], so
    the buckets are pairwise disjoint, cover the space, and are
    contiguous in z order.  A column entry shorter than [prefix_bits]
    (a coarse element spanning several buckets) contributes fractional
    mass to every bucket it covers, keeping the total mass equal to the
    row count.

    Besides mass, each bucket tracks the mean bitstring length (element
    level) of its entries — the quantity the containment-join estimate
    of {!Cost} needs (see docs/COST_MODEL.md). *)

type t

val prefix_bits : t -> int
(** Number of leading z bits a bucket discriminates (the histogram has
    [2^prefix_bits] buckets). *)

val rows : t -> int
(** Number of column entries the histogram was built from.  Bucket
    masses sum to this (up to float rounding). *)

val avg_level : t -> float
(** Mean bitstring length over all entries (0 when empty). *)

val build :
  ?prefix_bits:int -> space:Sqp_zorder.Space.t -> Sqp_zorder.Bitstring.t Seq.t -> t
(** [build ~space zs] scans the sequence once.  [prefix_bits] defaults
    to [min 8 (Space.total_bits space)]; it is clamped to that bound.
    @raise Invalid_argument if [prefix_bits < 0]. *)

val bucket_count : t -> int
val bucket_mass : t -> int -> float
(** Mass (possibly fractional) in bucket [i].
    @raise Invalid_argument if [i] is out of range. *)

val bucket_avg_level : t -> int -> float
(** Mean entry level in bucket [i]; {!avg_level} for an empty bucket,
    so estimates degrade gracefully rather than dividing by zero. *)

val fold_nonempty : (int -> float -> float -> 'a -> 'a) -> t -> 'a -> 'a
(** [fold_nonempty f t init] folds [f bucket mass avg_level] over the
    non-empty buckets in z order. *)

val render : t -> string
(** A short human-readable sketch: total rows, level stats, and a
    sparkline of bucket masses in z order — shown by the [analyze]
    shell command. *)
