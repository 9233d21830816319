(** Axis-aligned boxes with inclusive integer bounds — the query regions
    of the range-search problem and the bounding volumes of CAD parts. *)

type t = private { lo : int array; hi : int array }

val make : lo:int array -> hi:int array -> t
(** @raise Invalid_argument if arities differ or [lo.(i) > hi.(i)]. *)

val of_ranges : (int * int) list -> t
(** [of_ranges [(xlo, xhi); (ylo, yhi); ...]]. *)

val dims : t -> int

val lo : t -> int array
val hi : t -> int array

val extent : t -> int -> int
(** Inclusive extent along an axis: [hi - lo + 1]. *)

val extents : t -> int array

val volume : t -> float

val contains_point : t -> Point.t -> bool
(** Inclusive on every axis; [false] on an arity mismatch.  Allocates
    nothing: the range searches call it once per scanned entry. *)

val contains_box : t -> t -> bool
(** [contains_box outer inner]. *)

val overlaps : t -> t -> bool

val intersection : t -> t -> t option

val equal : t -> t -> bool

val translate : t -> int array -> t

val clip : t -> side:int -> t option
(** Intersect with the grid [0, side-1]^k; [None] if fully outside. *)

val classifier : Sqp_zorder.Space.t -> t -> Sqp_zorder.Decompose.classifier
(** Inside / Outside / Crosses test of elements against the box. *)

val pp : Format.formatter -> t -> unit
