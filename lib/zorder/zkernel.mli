(** Int-key merge kernels: the z-order sort, containment sweep and range
    merges over flat [int array]s.

    The inner loops of [Zmerge.pairs], [Range_search.search_plain] /
    [search_skip] and [Spatial_join.merge].  Every z value — a
    {!Bitstring.t} holds at most [Space.max_total_bits] = 61 bits — is
    word-encoded as a sign-flipped integer whose native order is z order
    ({!word_key}), so the hot loops run over flat int arrays: one machine
    comparison per z comparison, one masked xor per prefix test.

    Control flow mirrors the list-based bitstring references, so results
    come out in the same order and the exact work counters (where the
    reference documents them) are the same.  The sort and sweep take a
    [comparisons] accumulator that is incremented once per z comparison
    or prefix test actually performed. *)

val word_key : Bitstring.t -> int
(** The int key of a z value: its bits, MSB-first at bit 62 down and
    zero-filled, with the sign bit flipped.  Among values of equal
    length, native [int] order is z order. *)

val point_key : Space.t -> int array -> int
(** [point_key space p = word_key (Interleave.shuffle space p)], read off
    {!Interleave.word} without building the bitstring: the key of a
    pixel.
    @raise Invalid_argument on a bad point. *)

val element_keys : total:int -> Bitstring.t -> int * int
(** [(klo, khi)] int keys of a decomposed element's inclusive scan range
    in a space of [total] bits — the keys of [Bitstring.pad_to e total
    false] and [pad_to e total true], read from the element's length and
    int ({!prefix_lo_key}, {!prefix_hi_key}) without building the padded
    values.
    @raise Invalid_argument if [total > 63] or the element is
    longer than [total]. *)

val prefix_lo_key : level:int -> int -> int
(** [prefix_lo_key ~level z] is the [klo] of {!element_keys} for the
    element of [level] bits whose bits, right-aligned, are the int [z]:
    the form {!Decompose.key_ranges} reads off its recursion.  Unchecked:
    requires [0 <= level <= 63] and [0 <= z < 2^level]. *)

val prefix_hi_key : total:int -> level:int -> int -> int
(** The matching [khi] in a space of [total] bits; also requires
    [level <= total <= 63]. *)

(** {1 Sort and containment sweep} *)

val sort_point_keys : Space.t -> int array -> int array
(** [sort_point_keys space ks] sorts the {!point_key}s [ks] of points of
    [space] in place and returns the sorting permutation: entry [r] is
    the input index of the [r]-th key.  Stable (equal keys keep their
    input order), by the radix sort of {!sort_keyed}: one counting pass
    per 8 bits of the space's z values, no comparison. *)

type keyed
(** A batch in z-sorted order, as the flat word-key / length /
    prefix-mask arrays the containment sweep reads. *)

val sort_keyed :
  comparisons:int ref -> (int -> Bitstring.t) -> int -> int array * keyed
(** [sort_keyed ~comparisons z n] stable-sorts the [n] z values [z 0 ..
    z (n - 1)] (equal values keep their input order, the tie rule of
    [List.sort] on a tagged list), reading them straight into single-int
    encodings.  Returns the sorting permutation and the batch's {!keyed}
    form.  Batches under 64 values are sorted with counted comparisons,
    larger ones with a radix sort that compares nothing. *)

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
  sweep_stats
(** [pairs ~comparisons zl nl zr nr emit] is the containment join of two
    unsorted batches: {!sort_keyed} on each side, then one merge sweep
    (ties take the left side, matching a stable sort of left-then-right)
    with one open-element stack per side, calling [emit i j] with input
    indices for every pair where one value is a prefix of the other —
    newest open element first, exactly the emission order of the list
    sweeps. *)

(** {1 Range merges} *)

type range_counters = {
  point_steps : int;
  element_steps : int;
  point_jumps : int;
  element_jumps : int;
  comparisons : int;
}

type key_ranges = { klo : int array; khi : int array }
(** The ascending scan ranges of a query as int keys, built per query
    by {!Decompose.key_ranges}: entry [j] is the {!element_keys} of the
    box's [j]-th element.  Point z values all share one length and range
    bounds are padded to that same length, so in the merges below key
    order alone decides every comparison. *)

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
