(** Index-based merge kernels over packed z values.

    The inner loops shared by [Zmerge], [Range_search] and
    [Spatial_join]'s packed fast paths: flat-array, allocation-free per
    step, with the same control flow (and hence the same exact work
    counters, where the reference documents them) as the list-based
    bitstring implementations they mirror.  All functions take a
    [comparisons] accumulator that is incremented once per z comparison
    or prefix test actually performed.

    Each kernel comes as a generic loop over packed records and a
    {e narrow} loop used when every value fits one 63-bit word (spaces up to [total_bits <= Zpacked.word_bits], e.g. any 2-D
    space of depth 31 or less).  Narrow values are word-encoded as
    sign-flipped integers whose native order is z order, so the hot loops
    run over flat [int array]s: one machine comparison per z comparison,
    one masked xor per prefix test.  Both loops execute the same control
    flow, so counters do not depend on which one ran. *)

val sort_perm : comparisons:int ref -> Zpacked.t array -> int array
(** Stable sorting permutation of a packed batch: [perm] such that
    [zs.(perm.(0)) <= zs.(perm.(1)) <= ...], equal z values keeping their
    input order (same tie rule as [List.sort] on a tagged list).  One
    counted comparison per {!Zpacked.compare}; the path for batches with
    a value wider than one word — narrow batches go through
    {!sort_keyed}. *)

type keyed
(** An all-narrow batch in z-sorted order, as the flat word-key / length
    / prefix-mask arrays the containment sweep reads — built once by
    {!sort_keyed} so {!sweep_pairs_keyed} never touches a boxed z
    value. *)

val sort_keyed :
  comparisons:int ref ->
  len:(int -> int) ->
  word:(int -> int) ->
  int ->
  (int array * keyed) option
(** [sort_keyed ~comparisons ~len ~word n] stable-sorts the [n] z values
    whose length and first word are [len i] and [word i] (the [w0] of
    value [i]: {!Zpacked.first_word} of a bitstring, or a packed value's
    own [w0]), reading them straight into single-int encodings — no
    packed copy of the batch is made.  Returns the sorting permutation
    (same order and tie rule as {!sort_perm}) and the batch's {!keyed}
    form, or [None] as soon as some value is wider than
    [Zpacked.word_bits]; callers then pack the batch and use {!sort_perm}
    and {!sweep_pairs}.  Batches under 64 values are sorted with counted
    comparisons, larger ones with a radix sort that compares nothing. *)

val uniform_word_keys : Zpacked.t array -> int array option
(** Word-encode a non-empty array of narrow z values of {e equal
    lengths}: [Some keys] with [keys] in the same order as the input and
    native [int] order equal to z order, or [None] if the array is empty,
    any value is longer than [Zpacked.word_bits], or lengths differ
    (equal-length is what lets the length tiebreak be dropped).  Computed
    once at prepare time by [Range_search] and fed to
    {!range_plain_keys} / {!range_skip_keys}. *)

val element_keys : total:int -> Zpacked.t -> int * int
(** [(klo, khi)] word keys of a decomposed element's inclusive scan range
    in a space of [total] bits — [pad_to total false] / [pad_to total
    true] without building the padded values.
    @raise Invalid_argument if [total > Zpacked.word_bits] or the element
    is longer than [total]. *)

type sweep_stats = { pairs : int; max_stack : int }
(** [pairs]: emissions; [max_stack]: deepest combined open-element stack
    (measured after each arrival, as [Spatial_join.merge] does). *)

val sweep_pairs :
  comparisons:int ref ->
  Zpacked.t array ->
  Zpacked.t array ->
  (int -> int -> unit) ->
  sweep_stats
(** [sweep_pairs ~comparisons zl zr emit] merges the two {e sorted}
    arrays (ties take the left side, matching a stable sort of
    left-then-right) and sweeps with one open-element stack per side,
    calling [emit li ri] for every containment pair — newest open element
    first, exactly the emission order of the list sweeps.  The loop over
    packed records, for batches that are not all narrow. *)

val sweep_pairs_keyed :
  comparisons:int ref -> keyed -> keyed -> (int -> int -> unit) -> sweep_stats
(** {!sweep_pairs} over pre-keyed sides (from {!sort_keyed}): same sweep,
    same counters, every z comparison one machine-word comparison.
    [emit] receives positions in sorted order; map them back through the
    permutations {!sort_keyed} returned. *)

val lower_bound :
  comparisons:int ref -> Zpacked.t array -> lo:int -> hi:int -> Zpacked.t -> int
(** First index in [\[lo, hi)] with [zs.(i) >= z] (binary search; one
    counted comparison per probe). *)

type range = { rlo : Zpacked.t; rhi : Zpacked.t }
(** One decomposed query element as its inclusive z scan range
    ([pad_to total false] / [pad_to total true]). *)

type range_counters = {
  point_steps : int;
  element_steps : int;
  point_jumps : int;
  element_jumps : int;
  comparisons : int;
}

val range_plain : Zpacked.t array -> range array -> (int -> unit) -> range_counters
(** Figure 5's plain two-sequence merge over the sorted point z array and
    the ascending range array; [emit i] is called for each reported point
    index, in ascending order.  Counter-for-counter identical to
    [Range_search.search_plain_reference]. *)

val range_skip : Zpacked.t array -> range array -> (int -> unit) -> range_counters
(** The skip variant: binary-search jumps over the point array instead of
    stepping, exactly mirroring [Range_search.search_skip_reference]. *)

type key_ranges = { klo : int array; khi : int array }
(** The ascending scan ranges of a query, as word keys (built per query
    with {!element_keys} — two flat int arrays instead of
    an array of packed pairs).  Point z values all share one narrow
    length and range bounds are padded to that same length, so in the
    merges below word order alone decides every comparison. *)

val range_plain_keys : int array -> key_ranges -> (int -> unit) -> range_counters
(** {!range_plain} in the narrow encoding: same control flow, same
    counters, every comparison one machine-word comparison.  The first
    argument is {!uniform_word_keys} of the sorted point array. *)

val range_skip_keys : int array -> key_ranges -> (int -> unit) -> range_counters
(** {!range_skip} in the narrow encoding; arguments as in
    {!range_plain_keys}. *)
