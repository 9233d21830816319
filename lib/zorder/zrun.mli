(** Delta-encoded (front-coded) runs of fixed-width int z values.

    Z-order clusters nearby points onto nearby keys, so consecutive
    sorted z values share long common prefixes — on the standard seeded
    workload the average shared prefix between neighbors is ~12 of 20
    bits.  A run stores [bits]-wide values (full-resolution z values read
    as integers, {!Interleave.rank}) in sorted (or any caller-chosen)
    order, the first of each {e restart block} whole and every other as
    [(shared-prefix-length, suffix-bytes)] against its predecessor.
    Restart points every 16 entries bound the decode chain and give
    {!validate} entry boundaries to check against — the classic LevelDB
    block layout, adapted to bit-granular keys.  Runs are always decoded
    whole ({!decode}).

    Serialized layout (all integers big-endian):
    {v
      u8  flags              0x01: fixed-length (the only mode)
      u8  bits               every value's width
      u8  restart_interval   16 when written
      u16 count
      u16 n_restarts         = ceil(count / interval)
      u16 x n_restarts       body offset of each restart entry
      body:
        restart entry        key bytes (MSB-first)
        delta entry          shared:u8 suffix bytes
    v}

    Every value has the same width (full-resolution keys are always
    [Space.total_bits] long), so entries carry no length bytes.  The
    reader takes the restart interval from the header.

    Consumers: v3 {!Sqp_btree.Persist} data pages and [Live] checkpoint
    base chunks. *)

type t
(** An immutable parsed run; a view into its backing string. *)

(** {1 Encoding} *)

val encode : bits:int -> int array -> t
(** Front-code the values in the order given, every one [bits] wide.
    @raise Invalid_argument on more than 65535 values, [bits] outside
    [\[0, Space.max_total_bits\]], a value outside [\[0, 2^bits)], or a
    body too large for 16-bit restart offsets. *)

val header_bytes : int
(** 7: the fixed part of a run's header. *)

val entry_bytes : bits:int -> index:int -> prev:int -> int -> int
(** [entry_bytes ~bits ~index ~prev z] is what the [index]-th value [z]
    of a run adds to its encoded size when the value before it is
    [prev]: a restart entry costs its 2-byte offset slot plus the whole
    key, any other a shared-prefix byte plus its suffix.  A run's
    {!byte_length} is {!header_bytes} plus the sum over its values, so
    callers pack pages to the byte without trial encodes. *)

val to_string : t -> string
(** The serialized bytes, self-contained (header included). *)

val of_string : ?pos:int -> ?len:int -> string -> t
(** Parse a run serialized at [pos] (default 0) spanning [len] bytes
    (default: to the end of the string).  Validates the header and
    restart-table shape only — use {!validate} for a full structural
    walk (fsck does).
    @raise Invalid_argument on a malformed header: a flags byte other
    than fixed-length, a width beyond [Space.max_total_bits], or a
    restart table inconsistent with the count. *)

(** {1 Observation} *)

val count : t -> int

val byte_length : t -> int
(** Total serialized size, header included. *)

(** {1 Decoding} *)

val decode : t -> int array
(** Materialize every value.
    @raise Invalid_argument on a corrupt entry (truncated suffix,
    shared prefix longer than the width, ...). *)

(** {1 Integrity} *)

val validate : t -> (unit, string) result
(** Decode every entry, checking each restart offset lands exactly on
    an entry boundary and the body is consumed exactly — the fsck-side
    deep check for v3 pages. *)
