(** Bit interleaving: the [shuffle] / [unshuffle] operators of Section 4.

    [shuffle] maps a grid point (or, more generally, the common coordinate
    prefixes of a region) to its z value by interleaving bits across axes,
    starting with axis 0 (X).  [unshuffle] inverts this, recovering the
    per-axis prefixes. *)

val shuffle : Space.t -> int array -> Bitstring.t
(** [shuffle space coords] is the full-resolution z value of the pixel at
    [coords] ([Space.dims space] coordinates of [Space.depth space] bits
    each).  Bit [j] of the result is bit [depth - 1 - j/k] of coordinate
    [j mod k].
    @raise Invalid_argument on wrong arity or out-of-range coordinates. *)

val shuffle_prefixes : Space.t -> (int * int) array -> Bitstring.t
(** [shuffle_prefixes space prefixes] interleaves per-axis prefixes, where
    [prefixes.(i) = (value_i, len_i)] gives the first [len_i] bits of axis
    [i] (as the integer [value_i < 2^len_i]).  The prefix lengths must be
    a valid interleaving pattern: [len_0 >= len_1 >= ... >= len_(k-1)] and
    [len_0 - len_(k-1) <= 1].
    @raise Invalid_argument otherwise. *)

val unshuffle : Space.t -> Bitstring.t -> (int * int) array
(** Inverse of {!shuffle_prefixes}: per-axis [(prefix_value, prefix_len)].
    Accepts z values of any length up to [Space.total_bits]. *)

val word : Space.t -> int array -> int
(** [word space coords] is the pixel's full-resolution z value packed
    MSB-first into one 63-bit word: bit [j] of [shuffle space coords] at
    bit [62 - j], the rest zero — [Zpacked.first_word (shuffle space
    coords)], computed with int shifts and no {!Bitstring}.  This is the
    one int interleave: {!rank}, [Zkernel.point_key] and the shard
    router's [z_of_point] are all read off it.
    @raise Invalid_argument on wrong arity, out-of-range coordinates or
    [Space.total_bits space > 63]. *)

val rank : Space.t -> int array -> int
(** [rank space coords] is the z value of a pixel read as an integer: the
    position of the pixel along the z curve (Figure 4; rank of [|3; 5|]
    in a 2d depth-3 space is 27).  It is {!word} shifted down.
    @raise Invalid_argument if [Space.total_bits space > 62]. *)

val point_of_rank : Space.t -> int -> int array
(** Inverse of {!rank}. *)
