(** Int-key merge kernels: the z-order sort, containment sweep and range
    merges over flat [int array]s.

    The inner loops of [Zmerge.pairs], [Range_search.search_plain] /
    [search_skip] and [Spatial_join.merge] for z values of at most
    [Zpacked.word_bits] = 63 bits (any 2-D space of depth 31 or less).
    Such a value is word-encoded as a sign-flipped integer whose native
    order is z order ({!word_key}), so the hot loops run over flat int
    arrays: one machine comparison per z comparison, one masked xor per
    prefix test.  A batch or space with a longer value is never handed
    here — those callers run their bitstring [*_reference]
    implementation instead.

    Control flow mirrors the list-based bitstring references, so results
    come out in the same order and the exact work counters (where the
    reference documents them) are the same.  The sort and sweep take a
    [comparisons] accumulator that is incremented once per z comparison
    or prefix test actually performed. *)

val word_key : Bitstring.t -> int
(** The int key of a z value of at most 63 bits: its first word
    ({!Zpacked.first_word}) with the sign bit flipped.  Among values of
    equal length, native [int] order is z order. *)

val point_key : Space.t -> int array -> int
(** [point_key space p = word_key (Interleave.shuffle space p)], read off
    {!Interleave.word} without building the bitstring: the key of a
    pixel.
    @raise Invalid_argument on a bad point or a space wider than
    [Zpacked.word_bits]. *)

val element_keys : total:int -> Bitstring.t -> int * int
(** [(klo, khi)] int keys of a decomposed element's inclusive scan range
    in a space of [total] bits — the keys of [Bitstring.pad_to e total
    false] and [pad_to e total true], read from the element's length and
    first word without building the padded values.
    @raise Invalid_argument if [total > Zpacked.word_bits] or the element
    is longer than [total]. *)

(** {1 Sort and containment sweep} *)

type keyed
(** An all-narrow batch in z-sorted order, as the flat word-key / length
    / prefix-mask arrays the containment sweep reads. *)

val sort_keyed :
  comparisons:int ref -> (int -> Bitstring.t) -> int -> (int array * keyed) option
(** [sort_keyed ~comparisons z n] stable-sorts the [n] z values [z 0 ..
    z (n - 1)] (equal values keep their input order, the tie rule of
    [List.sort] on a tagged list), reading them straight into single-int
    encodings.  Returns the sorting permutation and the batch's {!keyed}
    form, or [None] if some value is longer than [Zpacked.word_bits].
    Batches under 64 values are sorted with counted comparisons, larger
    ones with a radix sort that compares nothing. *)

type sweep_stats = { pairs : int; max_stack : int }
(** [pairs]: emissions; [max_stack]: deepest combined open-element stack
    (measured after each arrival, as [Spatial_join.merge] does). *)

val pairs :
  comparisons:int ref ->
  (int -> Bitstring.t) ->
  int ->
  (int -> Bitstring.t) ->
  int ->
  (int -> int -> unit) ->
  sweep_stats option
(** [pairs ~comparisons zl nl zr nr emit] is the containment join of two
    unsorted batches: {!sort_keyed} on each side, then one merge sweep
    (ties take the left side, matching a stable sort of left-then-right)
    with one open-element stack per side, calling [emit i j] with input
    indices for every pair where one value is a prefix of the other —
    newest open element first, exactly the emission order of the list
    sweeps.  [None], with nothing emitted, if some value on either side
    is longer than [Zpacked.word_bits]. *)

(** {1 Range merges} *)

type range_counters = {
  point_steps : int;
  element_steps : int;
  point_jumps : int;
  element_jumps : int;
  comparisons : int;
}

type key_ranges = { klo : int array; khi : int array }
(** The ascending scan ranges of a query as int keys (built per query
    with {!element_keys}).  Point z values all share one length and range
    bounds are padded to that same length, so in the merges below key
    order alone decides every comparison. *)

val ranges_of_elements : total:int -> Bitstring.t list -> key_ranges
(** The {!element_keys} of a z-ordered element list (a decomposed box)
    in a space of [total] bits.
    @raise Invalid_argument as {!element_keys}. *)

val range_plain_keys : int array -> key_ranges -> (int -> unit) -> range_counters
(** Figure 5's plain two-sequence merge over the sorted point keys
    ({!word_key} of each point's z value) and the ascending ranges;
    [emit i] is called for each reported point index, in ascending
    order.  Counter-for-counter identical to
    [Range_search.search_plain_reference]. *)

val range_skip_keys : int array -> key_ranges -> (int -> unit) -> range_counters
(** The skip variant: binary-search jumps over the point keys instead of
    stepping, counter-for-counter identical to
    [Range_search.search_skip_reference].  Arguments as in
    {!range_plain_keys}. *)
