(** Decomposition of spatial objects into elements (Section 3.1; the
    generalized RangeSearch decomposition of [OREN84]).

    The object is described by a {e classifier} telling, for any element,
    whether the element lies entirely inside the object, entirely outside,
    or crosses its boundary.  The decomposition recursively splits crossing
    elements; inside elements are emitted whole, and crossing elements that
    reach pixel resolution (or a recursion/size budget) are emitted as
    over-approximating boundary elements.

    Output is always in z order, with pairwise-disjoint elements. *)

type classification = Inside | Outside | Crosses

type classifier = Element.t -> classification
(** Must be consistent: a child of an [Inside] ([Outside]) element is
    [Inside] ([Outside]). *)

type options = {
  max_level : int option;
      (** Stop splitting below this level; crossing elements at the level
          are emitted (coarser, over-approximating).  [None]: split to
          pixel resolution. *)
  max_elements : int option;
      (** Soft budget: once at least this many elements have been emitted,
          remaining crossing elements are emitted un-split.  [None]:
          unbounded.  The result over-approximates but stays exact on
          [Inside] regions already emitted. *)
}

val default_options : options
(** No limits: exact decomposition to pixel resolution. *)

val run : ?options:options -> Space.t -> classifier -> Element.t list
(** Eager decomposition, elements in z order. *)

val to_seq : ?options:options -> Space.t -> classifier -> Element.t Seq.t
(** Lazy decomposition: elements are produced on demand, in z order —
    Section 3.3's "elements of the box may be generated on demand".
    [max_elements] is ignored in this form (the consumer controls how many
    elements to force). *)

val seq_from : Space.t -> classifier -> Bitstring.t -> Element.t Seq.t
(** [seq_from space classify zmin] lazily produces, in z order, the
    decomposition elements [e] with [Element.zhi e >= zmin] — i.e. it
    skips (without generating) all elements wholly before [zmin].  This is
    the "random access on sequence B" of Section 3.3. *)

val box_classifier : Space.t -> lo:int array -> hi:int array -> classifier
(** Classifier for an axis-aligned box with inclusive integer bounds.
    @raise Invalid_argument if bounds are invalid ([lo > hi] on some axis
    or out of the grid). *)

val decompose_box : ?options:options -> Space.t -> lo:int array -> hi:int array -> Element.t list
(** [run ?options space (box_classifier space ~lo ~hi)], element for
    element; the decomposition of Figure 2.

    Computed per call by one fold over the elements in z order, with
    int compares on the elements' per-axis bounds and each element's z
    prefix carried as an int (no element is built to be classified, and
    nothing is memoized), so it is cheap enough for every request.
    Traced like {!run}.
    @raise Invalid_argument on the inputs {!box_classifier} rejects. *)

val key_ranges : Space.t -> lo:int array -> hi:int array -> Zkernel.key_ranges
(** The exact decomposition of the box ({!decompose_box} with
    {!default_options}) as the scan ranges the range merges read: entry
    [j] holds the {!Zkernel.element_keys} of element [j], computed from
    the same fold's int prefixes without building an element.  The
    element count comes first, in closed form wherever an element
    crosses the box on one axis only, so the two arrays are allocated
    once each at their exact length; beyond them it allocates O(1)
    words.  Traced like {!run}.
    @raise Invalid_argument on the inputs {!box_classifier} rejects. *)

val reset_cache : unit -> unit
(** Does nothing: there is no decomposition cache.  It stays only
    because the serving benchmark ([perfbench/zbench.ml]) still calls
    it, and goes when that benchmark next changes. *)

val count : ?options:options -> Space.t -> classifier -> int
(** Number of elements [run] would produce, without materializing them. *)

val is_exact_cover :
  Space.t -> classifier -> Element.t list -> bool
(** Debug/test helper: are the elements disjoint, in z order, and is every
    [Inside] pixel covered and every [Outside] pixel uncovered?  Only
    feasible for tiny spaces (iterates all pixels). *)
