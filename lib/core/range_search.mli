(** The range-search algorithm of Section 3.3, on in-memory sequences.

    Step 1 builds the z-ordered point sequence P, step 2 the z-ordered
    element sequence B (the decomposed box), step 3 merges them looking
    for points contained in elements.  Two merge variants are provided:
    the plain O(|P| + |B|) merge and the optimized merge that uses random
    accesses (binary search) to skip dead stretches of either sequence —
    plus a step-by-step trace used to reproduce Figure 5.

    The disk-resident version of the same algorithm lives in
    {!Sqp_btree.Zindex}; this module is the algorithmic core, with exact
    work counters, suitable for analysis and benchmarks. *)

type space = Sqp_zorder.Space.t

type 'a prepared
(** The sorted point sequence P ([z, point, payload]). *)

val prepare : space -> (Sqp_geom.Point.t * 'a) array -> 'a prepared
(** Step 1: shuffle every point and sort by z value.  The sorted values
    are also keyed for {!Sqp_zorder.Zkernel}'s int-key merges. *)

val prepared_length : 'a prepared -> int

val prepared_entry : 'a prepared -> int -> Sqp_geom.Point.t * 'a
(** [prepared_entry p i] is the [i]-th entry of P in z order, the one P
    holds (not a copy): the row an iteration's index [i] names.
    @raise Invalid_argument if [i] is out of bounds. *)

type counters = {
  point_steps : int;    (** sequential advances in P *)
  element_steps : int;  (** sequential advances in B *)
  point_jumps : int;    (** random accesses into P *)
  element_jumps : int;  (** random accesses into B *)
  comparisons : int;
}

val iter_plain : 'a prepared -> Sqp_geom.Box.t -> (int -> unit) -> counters
(** The unoptimized merge: walk both sequences entry by entry, on the
    int-key kernel ({!Sqp_zorder.Zkernel.range_plain_keys}), calling [f
    i] with the index ({!prepared_entry}) of each point reported, in z
    order; the points {e and counters} are {!search_plain_reference}'s.
    Besides the key ranges ({!Sqp_zorder.Decompose.key_ranges}) it
    allocates O(1) words, nothing per point, element or jump.  With
    global tracing on it records the [range_search.plain] span and
    metrics. *)

val iter_skip : 'a prepared -> Sqp_geom.Box.t -> (int -> unit) -> counters
(** The optimized merge: when the current point z value leaves the
    current element, binary-search the other sequence ("parts of the
    space that could not possibly contribute are skipped").  Int-key
    kernel ({!Sqp_zorder.Zkernel.range_skip_keys}); points and counters
    are {!search_skip_reference}'s.  Called, allocating and traced
    ([range_search.skip]) as {!iter_plain}. *)

val search_plain :
  'a prepared -> Sqp_geom.Box.t -> (Sqp_geom.Point.t * 'a) list * counters
(** {!iter_plain}, its points accumulated in z order. *)

val search_skip :
  'a prepared -> Sqp_geom.Box.t -> (Sqp_geom.Point.t * 'a) list * counters
(** {!iter_skip}, its points accumulated in z order. *)

val search_plain_reference :
  'a prepared -> Sqp_geom.Box.t -> (Sqp_geom.Point.t * 'a) list * counters
(** The byte-wise bitstring implementation of {!search_plain}: the
    differential oracle and benchmark baseline. *)

val search_skip_reference :
  'a prepared -> Sqp_geom.Box.t -> (Sqp_geom.Point.t * 'a) list * counters
(** Bitstring implementation of {!search_skip}; same oracle role. *)

type trace_step = {
  description : string;
  point_z : string option;   (** current P record's z value *)
  element_z : string option; (** current B record's element *)
}

val search_trace :
  'a prepared -> Sqp_geom.Box.t -> (Sqp_geom.Point.t * 'a) list * trace_step list
(** The skip merge, narrated step by step (Figure 5's walkthrough). *)
