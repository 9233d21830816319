(** BIGMIN / LITMAX: z-order skip computation.

    During the merged scan of Section 3.3, when the current point's z value
    escapes the query box, the scan can jump directly to the next z value
    that is back inside the box ("parts of the space that could not
    possibly contribute to the result are skipped").  With the box's
    decomposition in hand this is a binary search over element ranges;
    BIGMIN computes the same jump target {e without} materializing the
    decomposition, straight from the box corners (Tropf-Herzog style),
    on integer z values ({!Interleave.rank}). *)

val in_box : Space.t -> lo:int array -> hi:int array -> int -> bool
(** Does the pixel with the given z value lie in the coordinate box? *)

val bigmin : Space.t -> lo:int array -> hi:int array -> int -> int option
(** [bigmin space ~lo ~hi z]: the smallest z value [>= z] whose pixel lies
    in the box, or [None] if there is none.  If [z] itself is inside, the
    result is [Some z]. *)

val litmax : Space.t -> lo:int array -> hi:int array -> int -> int option
(** Mirror image: the largest z value [<= z] inside the box. *)
