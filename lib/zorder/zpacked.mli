(** Fixed-width packed z values: the storage codec.

    A z value (Section 3.1 of the paper) is a variable-length bitstring;
    {!Bitstring} stores one byte-at-a-time in a [Bytes.t].  This module
    packs the same bits into a length plus {e two 63-bit words}, covering
    z values up to {!max_bits} = 126 bits.  Bit [i] of the bitstring
    (MSB-first, [0 <= i < len]) lives at bit [62 - i] of the first word
    for [i < 63] and at bit [125 - i] of the second otherwise; bits at
    positions [>= len] are kept zero, so prefix arithmetic is pure word
    arithmetic:

    {v
      z value   b0 b1 ... b62 | b63 ... b125
                ^ MSB of w0     ^ MSB of w1
    v}

    Its users are the storage layer: {!Zrun}'s front-coded pages
    ({!common_prefix_len}, {!take}, {!suffix_bytes}, {!append_bytes}),
    [Persist]'s format v3 ({!fits_space}) and [Live]'s front-coded base
    chunks ({!shuffle}, {!unshuffle}).  Query kernels do not run on packed
    records: {!Zkernel} reads only {!first_word} of values of at most
    {!word_bits} bits, and longer values take the bitstring reference
    paths.  The two representations agree bit-for-bit wherever both
    apply (property-tested in [test/test_zpacked.ml]). *)

type t
(** A packed z value of at most {!max_bits} bits. *)

val word_bits : int
(** 63: bits per word.  Values no longer than this live entirely in the
    first word — the {!Zkernel} bound. *)

val max_bits : int
(** 126: the longest representable z value. *)

(** {1 Construction} *)

val empty : t

val of_bitstring : Bitstring.t -> t option
(** Lossless packing; [None] iff [Bitstring.length b > max_bits]. *)

val first_word : Bitstring.t -> int
(** The first word of [of_bitstring b] — the first {!word_bits} bits of
    [b], MSB-first, zero-filled — without building the record.  For a
    value of at most {!word_bits} bits it holds the whole value, which is
    how {!Zkernel} keys bitstrings directly. *)

val to_bitstring : t -> Bitstring.t
(** Inverse of {!of_bitstring}: [to_bitstring (of_bitstring b) = b]. *)

(** {1 Observation} *)

val length : t -> int

val common_prefix_len : t -> t -> int
(** Length of the longest common prefix, via count-leading-zeros on the
    xor of the words. *)

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
    [Space.total_bits space <= max_bits].  The storage rule: [Persist]
    writes format v3 only when it holds.  ([Live] tables are at most
    {!word_bits} bits, so their base chunks always pack.) *)

val shuffle : Space.t -> int array -> t
(** Bit interleaving straight into the packed words; agrees with
    {!Interleave.shuffle}.
    @raise Invalid_argument on bad coordinates or if the space does not
    satisfy {!fits_space}. *)

val unshuffle : Space.t -> t -> (int * int) array
(** Per-axis [(value, bits)] prefixes; agrees with
    {!Interleave.unshuffle}.
    @raise Invalid_argument if [length t > Space.total_bits space]. *)
