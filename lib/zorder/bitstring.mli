(** Immutable variable-length bitstrings.

    Z values (Section 3.1 of the paper) are variable-length bitstrings
    ordered lexicographically; containment of elements is prefix testing.
    This module is the concrete representation: bits are stored MSB-first
    in a [Bytes.t]; unused trailing bits of the last byte are kept at zero
    so that structural operations can work bytewise.

    Lexicographic ("dictionary") order: compare bit by bit from the left;
    if one string is a proper prefix of the other, the prefix is smaller.
    Under this order, a parent element always sorts immediately before its
    descendants. *)

type t

(** {1 Construction} *)

val empty : t

val of_bools : bool list -> t

val of_string : string -> t
(** [of_string "0110"] builds the 4-bit string 0110.
    @raise Invalid_argument on characters other than ['0'] and ['1']. *)

val of_int : int -> width:int -> t
(** [of_int v ~width] is the big-endian [width]-bit encoding of [v].
    @raise Invalid_argument if [v < 0], [width < 0], [width > 62] or
    [v >= 2^width]. *)

val init : int -> (int -> bool) -> t
(** [init n f] is the [n]-bit string whose [i]-th bit is [f i]. *)

val of_bytes : Bytes.t -> int -> t
(** [of_bytes buf n] is the first [n] bits of [buf], read MSB-first (the
    layout {!byte} exposes); [buf] is copied and its bits past [n] are
    ignored, so a caller can grow a z prefix in one reusable buffer.
    @raise Invalid_argument if [n < 0] or [n > 8 * Bytes.length buf]. *)

(** {1 Observation} *)

val length : t -> int

val get : t -> int -> bool
(** @raise Invalid_argument if the index is out of bounds. *)

val is_empty : t -> bool

val to_string : t -> string
(** Inverse of {!of_string}: e.g. ["0110"]. *)

val to_bools : t -> bool list

val to_int : t -> int
(** Interpret the bits as a big-endian integer.
    @raise Invalid_argument if [length t > 62]. *)

val byte : t -> int -> int
(** [byte t k] is the raw [k]-th storage byte (bits [8k .. 8k+7],
    MSB-first); bits at positions [>= length t] read as zero.  Exists so
    [Zkernel] can read a value's first word bytewise instead of bit by
    bit.
    @raise Invalid_argument if [k] is outside [\[0, (length t + 7) / 8)]. *)

(** {1 Combination} *)

val append_bit : t -> bool -> t

val concat : t -> t -> t

val take : t -> int -> t
(** [take t n] is the first [n] bits.
    @raise Invalid_argument if [n < 0 || n > length t]. *)

val drop : t -> int -> t
(** [drop t n] is all but the first [n] bits. *)

val pad_to : t -> int -> bool -> t
(** [pad_to t n b] appends copies of [b] until the length is [n].
    @raise Invalid_argument if [n < length t]. *)

val set : t -> int -> bool -> t
(** Functional update of one bit. *)

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

val successor : t -> t option
(** Successor at the same length (binary increment); [None] on all-ones. *)

(** {1 Misc} *)

val hash : t -> int

val pp : Format.formatter -> t -> unit
(** Prints as ["0110"]; the empty string prints as ["<>"]. *)
