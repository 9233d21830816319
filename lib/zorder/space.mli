(** Description of the discrete space being indexed.

    The paper assumes a [2^d x ... x 2^d] grid in [k] dimensions, split
    recursively into equal halves with the split axis cycling
    [x, y, x, y, ...] (Section 3.1, assumptions 1-3).  A [Space.t] packages
    [k] and [d]; every element / z-value operation takes one. *)

type t = private { dims : int; depth : int }
(** [dims] is k (number of dimensions), [depth] is d (bits per axis). *)

val max_total_bits : int
(** 61: the widest space, in total bits.  In such a space every
    full-resolution z value, read as an integer ({!Interleave.rank}), and
    every z interval's size fit a non-negative OCaml [int], so the whole
    engine keys z values as plain ints.  It also bounds every
    {!Bitstring.t}, which is one such int plus its length.  This is the
    one place the width is decided. *)

val make : dims:int -> depth:int -> t
(** @raise Invalid_argument unless [1 <= dims], [0 <= depth] and
    [dims * depth <= max_total_bits]. *)

val dims : t -> int
val depth : t -> int

val side : t -> int
(** [2^depth], the number of grid positions per axis. *)

val total_bits : t -> int
(** [dims * depth]: the length of a full-resolution (pixel) z value. *)

val axis_of_level : t -> int -> int
(** [axis_of_level s level] is the axis discriminated by the split at tree
    depth [level] (0-based): [level mod dims].  Level 0 splits on axis 0
    (x), matching the paper's convention of interleaving starting with X. *)

val cells : t -> float
(** Total number of pixels, [2^(dims*depth)], as a float (may be huge). *)

val valid_coord : t -> int -> bool
(** Whether a coordinate lies in [0, side - 1]. *)

val pp : Format.formatter -> t -> unit
