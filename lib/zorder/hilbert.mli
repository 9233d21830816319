(** 2d Hilbert curve — the classic alternative space-filling order.

    The paper builds everything on z order because interleaving makes
    encoding, decoding and range decomposition cheap bit operations.  The
    Hilbert curve preserves proximity slightly better (consecutive ranks
    are always 4-neighbours; the z curve makes occasional long jumps) at
    the price of a more expensive code and no prefix/containment algebra.
    This module exists to quantify that trade-off in the proximity and
    clustering ablations; it is {e not} used by the AG machinery. *)

val rank : Space.t -> int array -> int
(** Position of a pixel along the Hilbert curve of the space's grid.
    @raise Invalid_argument unless the space is 2d. *)

val point_of_rank : Space.t -> int -> int array
(** Inverse of {!rank}. *)

val traverse : Space.t -> int array Seq.t
(** All pixels in Hilbert order (small spaces only, as
    {!Curve.traverse}). *)
