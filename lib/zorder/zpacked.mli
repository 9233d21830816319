(** Fixed-width packed z values.

    A z value (Section 3.1 of the paper) is a variable-length bitstring;
    {!Bitstring} stores one byte-at-a-time in a [Bytes.t].  This module is
    the hot-path representation: the same bitstring packed into an
    unboxed-friendly record of a length plus {e two 63-bit words}, covering
    z values up to {!max_bits} = 126 bits — more than any 2-D,
    31-bits-per-axis space ever produces.  Bit [i] of the bitstring
    (MSB-first, [0 <= i < len]) lives at bit [62 - i] of [w0] for [i < 63]
    and at bit [125 - i] of [w1] otherwise; bits at positions [>= len] are
    kept zero, which makes order and prefix tests pure word arithmetic:

    {v
      z value   b0 b1 ... b62 | b63 ... b125
                ^ MSB of w0     ^ MSB of w1
      compare   unsigned w0, then unsigned w1, then length
      prefix    (w lxor w') masked to the prefix length = 0
    v}

    [compare], [is_prefix], [common_prefix_len] and friends are
    allocation-free.  Callers whose space exceeds 126 bits keep using the
    [Bitstring] path — {!of_bitstring} and {!pack_array} return [None] so
    the fallback is explicit and total; the two representations agree
    bit-for-bit wherever both apply (property-tested in
    [test/test_zpacked.ml]). *)

type t = private { len : int; w0 : int; w1 : int }
(** Exposed (read-only) so the flat kernels in {!Zkernel} can inline word
    access; construct only through the functions below, which maintain the
    bits-beyond-[len]-are-zero invariant. *)

val word_bits : int
(** 63: bits per word.  Values no longer than this live entirely in [w0]
    — the {!Zkernel} loops specialise on it ("narrow" values compare with
    a single machine-word comparison). *)

val max_bits : int
(** 126: the longest representable z value. *)

(** {1 Construction} *)

val empty : t

val of_bitstring : Bitstring.t -> t option
(** Lossless packing; [None] iff [Bitstring.length b > max_bits]. *)

val first_word : Bitstring.t -> int
(** The [w0] word of [of_bitstring b] — the first {!word_bits} bits of
    [b], MSB-first, zero-filled — without building the record.  For a
    narrow value ([length b <= word_bits]) it holds the whole value, which
    is how {!Zkernel.sort_keyed} encodes bitstrings directly. *)

val pack_array : Bitstring.t array -> t array option
(** Pack every element or — if any is longer than {!max_bits} — none
    ([None] tells the caller to stay on the reference path). *)

val to_bitstring : t -> Bitstring.t
(** Inverse of {!of_bitstring}: [to_bitstring (of_bitstring b) = b]. *)

(** {1 Observation} *)

val length : t -> int

val get : t -> int -> bool
(** @raise Invalid_argument if the index is out of bounds. *)

(** {1 Order and containment} *)

val compare : t -> t -> int
(** Lexicographic order, proper prefixes first — identical to
    {!Bitstring.compare} on the unpacked values.  Three word compares, no
    allocation, no loop. *)

val equal : t -> t -> bool

val is_prefix : t -> t -> bool
(** [is_prefix p t] iff [p] is a (non-strict) prefix of [t]; one masked
    xor per word. *)

val contains : t -> t -> bool
(** Element containment = prefix testing (Proposition 1): alias of
    {!is_prefix}. *)

val common_prefix_len : t -> t -> int
(** Length of the longest common prefix, via count-leading-zeros on the
    xor of the words. *)

val pad_to : t -> int -> bool -> t
(** [pad_to t n b] appends copies of [b] until the length is [n] — the
    packed analogue of {!Bitstring.pad_to}, used to turn a decomposed
    element into its \[zlo, zhi\] scan range in O(1).
    @raise Invalid_argument if [n < length t] or [n > max_bits]. *)

(** {1 Bit surgery}

    The primitives behind {!Zrun}'s front coding: split a value into a
    shared prefix and a byte-packed suffix, and rebuild it from its
    predecessor's prefix plus the stored suffix bytes. *)

val take : t -> int -> t
(** [take t n] is the first [n] bits of [t].
    @raise Invalid_argument unless [0 <= n <= length t]. *)

val suffix_bytes : t -> pos:int -> string
(** Bits [\[pos, length t)] packed MSB-first into bytes (trailing bits of
    the last byte zero) — the stored form of a front-coded suffix.
    @raise Invalid_argument unless [0 <= pos <= length t]. *)

val append_bytes : t -> bytes:string -> pos:int -> nbits:int -> t
(** [append_bytes t ~bytes ~pos ~nbits] appends [nbits] bits read
    MSB-first from [bytes] starting at byte [pos] — the inverse of
    pairing {!take} with {!suffix_bytes}.
    @raise Invalid_argument if the result would exceed {!max_bits} or
    [bytes] is too short. *)

(** {1 Interleaving} *)

val fits_space : Space.t -> bool
(** Whether every z value of the space (up to [total_bits]) packs, i.e.
    [Space.total_bits space <= max_bits].  The fallback rule: operators
    test this once per query/prepare and stay on [Bitstring] when false. *)

val shuffle : Space.t -> int array -> t
(** Bit interleaving straight into the packed words; agrees with
    {!Interleave.shuffle}.
    @raise Invalid_argument on bad coordinates or if the space does not
    satisfy {!fits_space}. *)

val unshuffle : Space.t -> t -> (int * int) array
(** Per-axis [(value, bits)] prefixes; agrees with
    {!Interleave.unshuffle}.
    @raise Invalid_argument if [length t > Space.total_bits space]. *)

(** {1 Misc} *)

val hash : t -> int

val pp : Format.formatter -> t -> unit
(** Prints as ["0110"]; the empty string prints as ["<>"] (same
    convention as {!Bitstring.pp}). *)
