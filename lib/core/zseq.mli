(** Flat z-sorted sequences of packed z values with payloads.

    The in-memory shape the packed kernels ({!Sqp_zorder.Zkernel}) run
    over: two parallel arrays — {!Sqp_zorder.Zpacked} z values in
    ascending z order and the corresponding payloads — supporting
    binary-search skip and the containment sweep.  Construction is total:
    [of_list] returns [None] when any z value exceeds
    [Zpacked.max_bits], telling the caller to stay on the list-based
    [Bitstring] reference path. *)

type 'a t

(** {1 Construction} *)

val of_list :
  comparisons:int ref -> (Sqp_zorder.Element.t * 'a) list -> 'a t option
(** Pack every z value (or return [None]), then stable-sort by z —
    equal z values keep their list order.  Sort comparisons are counted
    into [comparisons]. *)

val of_packed :
  comparisons:int ref -> Sqp_zorder.Zpacked.t array -> 'a array -> 'a t
(** Same, from already-packed (unsorted) parallel arrays.  The inputs are
    not modified.
    @raise Invalid_argument if the arrays differ in length. *)

val of_sorted : Sqp_zorder.Zpacked.t array -> 'a array -> 'a t
(** Adopt already-sorted parallel arrays (no copy).
    @raise Invalid_argument if lengths differ or z values descend. *)

(** {1 Observation} *)

val length : 'a t -> int

val z : 'a t -> int -> Sqp_zorder.Zpacked.t
val payload : 'a t -> int -> 'a

val lower_bound : comparisons:int ref -> 'a t -> Sqp_zorder.Zpacked.t -> int
(** First index with [z t i >= key] (binary-search skip). *)

(** {1 Merging} *)

val pairs :
  comparisons:int ref ->
  'a t ->
  'b t ->
  ('a * 'b) list * Sqp_zorder.Zkernel.sweep_stats
(** Containment pairs via {!Sqp_zorder.Zkernel.sweep_pairs}; output order
    matches the list-based [Zmerge] sweep bit for bit. *)
