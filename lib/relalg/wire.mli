(** Binary (de)serialization of relational data and plans for the wire.

    The network layer ({!Sqp_server.Protocol}) ships query results and —
    in the request direction — {e plans} between processes.  A full
    {!Plan.t} cannot cross a process boundary because selection
    predicates are closures; this module therefore defines {!plan}, the
    declarative subset a client may send: base relations are referred to
    {e by name} (resolved against the server's catalog) and selections
    are restricted to the two predicate constructors {!Plan.attr_equals}
    and {!Plan.attr_between} whose meaning is pure data.

    All codecs are length-safe: {!type-cursor} reads never step past the
    end of the buffer, decoders raise only {!Corrupt} (never
    out-of-bounds exceptions), and every [encode]/[decode] pair
    roundtrips — property-tested with seeded fuzz in
    [test/test_protocol.ml].

    Scalars are fixed-width big-endian: [u8]/[u32] for tags and counts,
    two's-complement [i64] for ints, IEEE-754 bits for floats.  Strings
    and bitstrings are length-prefixed. *)

exception Corrupt of string
(** Raised by every [decode_*]/[read_*] function on malformed input:
    truncated buffers, unknown tags, lengths past the end, arity
    mismatches, over-deep plan trees. *)

(** {1 Cursors}

    A cursor is a read position over an immutable buffer; all [read_*]
    functions bump it.  Kept abstract so decoders cannot skip the bounds
    checks. *)

type cursor

val cursor : string -> cursor
(** A cursor at position 0. *)

val cursor_at : string -> int -> cursor
(** A cursor at byte [pos].
    @raise Invalid_argument if [pos] is out of bounds. *)

val remaining : cursor -> int
(** Bytes left to read. *)

val at_end : cursor -> bool

(** {1 Scalar codecs} *)

val write_u8 : Buffer.t -> int -> unit
val read_u8 : cursor -> int

val write_u32 : Buffer.t -> int -> unit
(** @raise Invalid_argument if negative or [>= 2^32]. *)

val read_u32 : cursor -> int

val write_i64 : Buffer.t -> int -> unit
val read_i64 : cursor -> int

val write_string : Buffer.t -> string -> unit
(** [u32] byte length, then the bytes. *)

val read_string : cursor -> string

val write_int_array : Buffer.t -> int array -> unit
(** [u32] count, then each element as [i64] — the codec for point
    coordinates and other small integer vectors (range bounds, the
    insert/delete mutation frames). *)

val read_int_array : cursor -> int array
(** @raise Corrupt if the advertised count exceeds 64 (a coordinate
    vector, not bulk data). *)

val write_point_list : Buffer.t -> (int array * int) list -> unit
(** [u32] count, then each (coordinates, payload) pair — the body of an
    insert frame. *)

val read_point_list : cursor -> (int array * int) list

(** {1 Relational codecs}

    Values, schemas and relations are encoded in one place, into a
    [bytes] allocated once at its exact length: each [*_size] function
    is an encoded length in bytes, each [put_*] writes at [pos] and
    returns the position just past what it wrote.  The [Buffer] writers
    append exactly those bytes. *)

val value_size : Value.t -> int

val put_value : bytes -> int -> Value.t -> int

val write_value : Buffer.t -> Value.t -> unit

val read_value : cursor -> Value.t
(** @raise Corrupt also on a [Zval] longer than
    [Sqp_zorder.Space.max_total_bits] bits, which no bitstring holds. *)

val int_cell_size : int
(** [value_size (Int _)]: 9 bytes, a tag and an [i64]. *)

val put_int_cell : bytes -> int -> int -> int
(** [put_int_cell buf pos i = put_value buf pos (Int i)], without
    building the value. *)

val write_schema : Buffer.t -> Schema.t -> unit
val read_schema : cursor -> Schema.t

val relation_header_size : name:string -> Schema.t -> int
(** Bytes of a relation's name, schema and tuple count. *)

val put_relation_header :
  bytes -> int -> name:string -> Schema.t -> count:int -> int
(** The header {!put_relation} writes for a relation of that name and
    schema holding [count] tuples; the tuples' values follow it.
    @raise Invalid_argument if [count] does not fit a [u32]. *)

val relation_size : Relation.t -> int

val put_relation : bytes -> int -> Relation.t -> int
(** The header, then every tuple's values (each self-describing). *)

val write_relation : Buffer.t -> Relation.t -> unit
(** Name, schema, then every tuple (each value self-describing): the
    bytes of {!put_relation}. *)

val read_relation : cursor -> Relation.t
(** @raise Corrupt also when a tuple's value types contradict the
    schema. *)

(** {1 Plans} *)

type plan =
  | Scan of string  (** a named relation of the server's catalog *)
  | Select_equals of string * Value.t * plan
  | Select_between of string * Value.t * Value.t * plan
  | Project of string list * plan
  | Project_all of string list * plan
  | Rename of (string * string) list * plan
  | Sort of string list * plan
  | Natural_join of plan * plan
  | Spatial_join of { zl : string; zr : string; left : plan; right : plan }
  | Product of plan * plan
  | Union of plan * plan
      (** The closure-free plan algebra a client may send.  Mirrors
          {!Plan.t} except that leaves are names and selections are the
          two data-only predicates. *)

val max_plan_depth : int
(** Decoder nesting bound (prevents stack abuse from hostile frames). *)

exception Unknown_relation of string
(** Raised by {!to_plan} when [resolve] has no relation of that name. *)

val to_plan : resolve:(string -> Plan.t option) -> plan -> Plan.t
(** Instantiate a wire plan against a catalog: every [Scan name] becomes
    [resolve name], selections become {!Plan.attr_equals} /
    {!Plan.attr_between}.
    @raise Unknown_relation on an unresolvable name. *)

val write_plan : Buffer.t -> plan -> unit
val read_plan : cursor -> plan

(** {1 Convenience} *)

val encode : (Buffer.t -> 'a -> unit) -> 'a -> string
(** Run a writer into a fresh buffer. *)

val decode : (cursor -> 'a) -> string -> ('a, string) result
(** Run a reader over a whole buffer; [Error] if it raises {!Corrupt}
    or leaves trailing bytes. *)
