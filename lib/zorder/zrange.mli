(** Z intervals and canonical element covers.

    Full-resolution z values fit in an OCaml [int] ([Space.make] caps
    spaces at [Space.max_total_bits] = 61 bits); a set of pixels whose z
    values form the interval [lo, hi] can be represented canonically as
    the unique minimal list of {e aligned} elements (each element's z
    range is an aligned power-of-two block of z values).  This is the
    bridge between element sequences and ordinary interval arithmetic; it
    underlies the overlay and CCL algorithms of Section 6. *)

val of_element : Space.t -> Element.t -> int * int
(** [(zlo, zhi)] of an element, as integers. *)

val to_element : Space.t -> lo:int -> hi:int -> Element.t option
(** [Some e] iff [lo, hi] is exactly the z range of an element: i.e.
    [hi - lo + 1] is a power of two and [lo] is aligned to it. *)

val cover : Space.t -> lo:int -> hi:int -> Element.t list
(** The canonical minimal aligned-element cover of the z interval
    [lo, hi], in z order.  [cover (of_element e) = [e]].
    @raise Invalid_argument if [lo > hi] or out of range. *)

val cover_count : Space.t -> lo:int -> hi:int -> int
(** [List.length (cover ...)] without materializing. *)

val elements_to_intervals : Space.t -> Element.t list -> (int * int) list
(** Map a z-ordered disjoint element list to its (merged, maximal)
    disjoint z intervals: adjacent element ranges are coalesced. *)

val intervals_to_elements : Space.t -> (int * int) list -> Element.t list
(** Inverse direction: canonical element cover of each interval,
    concatenated.  Intervals must be disjoint, sorted, non-adjacent. *)

val total_cells : (int * int) list -> int
(** Total number of pixels in a disjoint interval list. *)

val overlaps_interval : (int * int) list -> lo:int -> hi:int -> bool
(** Does the z interval [lo, hi] intersect any interval of the
    (ascending, disjoint) list?  Early-exits once an interval starts
    past [hi] — the shard-routing pruning test.
    @raise Invalid_argument if [lo > hi]. *)

val cover_overlaps : Space.t -> Element.t list -> lo:int -> hi:int -> bool
(** [overlaps_interval] over a z-ordered disjoint element list (e.g. a
    decompose cover): does any element's z range intersect [lo, hi]?
    This is the router's fan-out test — a query box is sent to a shard
    iff its cover overlaps the shard's owned z interval. *)
