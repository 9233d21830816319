(** Immutable variable-length bitstrings.

    Z values (Section 3.1 of the paper) are variable-length bitstrings
    ordered lexicographically; containment of elements is prefix testing.
    This module is the concrete representation: a bitstring of at most
    {!Space.max_total_bits} (61) bits — as long as any z value of any
    space — held as one non-negative [int] plus its length.  Every
    constructor refuses a longer string with [Invalid_argument].  The
    representation is canonical, so structural equality and
    [Hashtbl.hash] are exact.

    Lexicographic ("dictionary") order: compare bit by bit from the left;
    if one string is a proper prefix of the other, the prefix is smaller.
    Under this order, a parent element always sorts immediately before its
    descendants.  {!compare} is the only z order: the polymorphic
    [Stdlib.compare] of two bitstrings is not it. *)

type t

(** {1 Construction}

    Each constructor raises [Invalid_argument] on a result longer than
    {!Space.max_total_bits}. *)

val empty : t

val of_string : string -> t
(** [of_string "0110"] builds the 4-bit string 0110.
    @raise Invalid_argument on characters other than ['0'] and ['1'], or
    on more than {!Space.max_total_bits} of them. *)

val of_int : int -> width:int -> t
(** [of_int v ~width] is the big-endian [width]-bit encoding of [v].
    @raise Invalid_argument if [v < 0], [width < 0],
    [width > Space.max_total_bits] or [v >= 2^width]. *)

val init : int -> (int -> bool) -> t
(** [init n f] is the [n]-bit string whose [i]-th bit is [f i].
    @raise Invalid_argument if [n < 0] or [n > Space.max_total_bits]. *)

(** {1 Observation} *)

val length : t -> int

val get : t -> int -> bool
(** @raise Invalid_argument if the index is out of bounds. *)

val is_empty : t -> bool

val to_string : t -> string
(** Inverse of {!of_string}: e.g. ["0110"]. *)

val to_int : t -> int
(** The bits read as a big-endian integer: [to_int (of_int v ~width) =
    v]. *)

(** {1 Combination} *)

val append_bit : t -> bool -> t
(** @raise Invalid_argument if [length t = Space.max_total_bits]. *)

val take : t -> int -> t
(** [take t n] is the first [n] bits.
    @raise Invalid_argument if [n < 0 || n > length t]. *)

val pad_to : t -> int -> bool -> t
(** [pad_to t n b] appends copies of [b] until the length is [n].
    @raise Invalid_argument if [n < length t] or
    [n > Space.max_total_bits]. *)

(** {1 Order and containment} *)

val compare : t -> t -> int
(** Lexicographic order; a proper prefix is smaller than its extensions. *)

val equal : t -> t -> bool

val is_prefix : t -> t -> bool
(** [is_prefix p t] is true iff [p] is a (non-strict) prefix of [t].
    This is exactly element containment: [contains e1 e2 = is_prefix e1 e2]. *)

val common_prefix_len : t -> t -> int

val shortest_separator : lo:t -> hi:t -> t
(** Shortest bitstring [s] with [lo < s <= hi] (lexicographically), given
    [lo < hi].  Used for prefix-B+-tree separator keys.
    @raise Invalid_argument if [compare lo hi >= 0]. *)

(** {1 Misc} *)

val pp : Format.formatter -> t -> unit
(** Prints as ["0110"]; the empty string prints as ["<>"]. *)
