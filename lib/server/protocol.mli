(** The wire protocol: versioned, length-prefixed binary frames.

    Frame layout on the socket (all integers big-endian):

    {v
    +-------------+-----------+-------+-------------------+
    | length: u32 | ver: u8   | tag:u8| body (length - 2) |
    +-------------+-----------+-------+-------------------+
    v}

    [length] counts the payload (version byte, tag byte and body) and
    must be between 2 and the reader's [max_bytes]; anything else is a
    framing error and ends the session.  Within a well-framed payload,
    decoding errors are {e recoverable}: the bytes were fully consumed,
    so the server answers a typed {!constructor-Error} response and the
    session continues.

    Version {!version} (= 2) carries the resilience header: after the
    deadline, a request carries an optional {e idempotency key}
    [(client_id, request_seq)] (flag byte 0/1, then two [i64]s),
    permitted on the live-table tags 6-9.  The server's per-client dedup
    window uses the key to answer a {e replayed} mutation with the
    original [Ack] bytes instead of applying the batch again — the
    foundation of the client's retry loop.  A request with any other
    version byte draws [Unsupported_version].

    Requests carry a deadline in milliseconds (0 = none) — the
    {e remaining} budget as seen by the client at send time, so the
    server spends only what the caller still has.  Responses mirror
    requests; every request can also draw [Error].  Codecs are total on
    hostile bytes: [decode_*] return [Result], never raise. *)

val version : int
(** Protocol version, currently 2 — the only one accepted. *)

val default_max_frame_bytes : int
(** Reader-side payload cap, 8 MiB. *)

(** {1 Messages} *)

type request =
  | Range_search of { lo : int array; hi : int array }
      (** Range query over the server's point set: coordinates of the
          points inside the box \[lo, hi\] (inclusive, one bound per
          dimension). *)
  | Query of Sqp_relalg.Wire.plan
      (** Execute a closure-free plan against the server catalog. *)
  | Explain of Sqp_relalg.Wire.plan  (** Optimize + EXPLAIN, no execution. *)
  | Analyze of Sqp_relalg.Wire.plan
      (** EXPLAIN ANALYZE: execute under measurement, return both the
          annotated operator tree and the result rows. *)
  | Health  (** Liveness + catalog check; bypasses admission control. *)
  | Insert of { table : string; points : (int array * int) list }
      (** Append (point, payload) entries to a live table; drawn through
          the same admission control as queries.  Answered by [Ack]. *)
  | Delete of { table : string; points : int array list }
      (** Remove the first entry at each exact point from a live table;
          [Ack.applied] counts the points actually present. *)
  | Create_index of { table : string }
      (** Online index rebuild: backfill + catch-up + atomic swap, while
          concurrent mutations keep flowing.  [Ack.applied] is the entry
          count of the swapped-in tree. *)
  | Live_range of { table : string; lo : int array; hi : int array }
      (** Snapshot range query over a live table: rows [(id, x0..xk)]
          for the entries inside the (inclusive) box, in z order, read
          from one frozen snapshot — never a half-applied batch. *)
  | Refresh_stats
      (** Compat (tag 10): the server keeps no statistics, so this
          changes nothing and is answered by a constant [Text].  It
          stays only because the serving benchmark's set-up sends it,
          and is to become a typed error at the next change to the
          benchmark (ROADMAP item 1). *)
  | Recover
      (** Admin frame: attempt to leave degraded mode — reopen any
          poisoned live-table store (journal recovery) and, on success,
          resume accepting mutations.  Bypasses admission control like
          [Health].  Answered by [Text], or [Error Degraded] if the
          stores are still sick. *)
  | Shard_map_get
      (** Fetch the current {!Shard_map.t} (from a router, the routing
          truth; from a shard, the last map pushed to it).  Answered by
          [Shard_map], or [Error Unknown_relation] when the peer has no
          map.  Bypasses admission control like [Health]. *)
  | Shard_map_set of { map : Shard_map.t; self : int }
      (** Install a shard map (router → shard, at cluster bring-up and
          on every epoch flip).  [self] is the index of the recipient's
          own entry in [map.entries], or [-1] if it owns no range; the
          shard derives its owned z interval from it and thereafter
          filters range reads to that interval (so a just-moved range
          cannot be double-answered by its old owner).  A map whose
          epoch is below the installed one draws [Error Stale_epoch].
          Answered by [Ack { applied = entries; seq = epoch }]. *)
  | Forward of { epoch : int; payload : string }
      (** The forwarded-request envelope (router → shard): [payload] is
          a complete inner request payload (version byte, tag byte,
          body — one level deep only), [epoch] the shard-map epoch the
          sender routed under.  A shard holding a different epoch
          answers [Error Stale_epoch] without looking at the inner
          request — the fencing that makes rebalance flips safe.  The
          inner request passes through the full normal pipeline
          (admission, dedup window, degraded checks), so a forwarded
          mutation carrying the {e origin client's} idempotency key is
          exactly-once end to end across router and shard retries. *)

type idem = { client_id : int; request_seq : int }
(** An idempotency key: [client_id] names a client instance (random,
    collision-unlikely), [request_seq] its per-client monotone request
    counter.  A client retries a mutation with the {e same} key until it
    has an answer; the server's dedup window makes the pair
    apply-at-most-once. *)

type request_frame = {
  deadline_ms : int option;
      (** Remaining deadline budget in milliseconds; bounds queue wait
          plus execution, expiry draws [Error Timed_out]. *)
  idem : idem option;
      (** Idempotency key; only on tags 6-9 (mutations and live reads),
          [Bad_request] elsewhere. *)
  request : request;
}
(** What a request payload decodes to. *)

type error_code =
  | Bad_request  (** undecodable payload or malformed plan *)
  | Unsupported_version  (** version byte other than {!version} *)
  | Unknown_relation  (** plan names a relation the catalog lacks *)
  | Overloaded  (** admission queue full: load was shed *)
  | Timed_out  (** the request's deadline expired *)
  | Shutting_down  (** server is draining; retry elsewhere *)
  | Server_error  (** execution raised; message has details *)
  | Degraded
      (** read-only degraded mode (disk full or runtime corruption):
          mutations are rejected, reads keep serving. *)
  | Stale_epoch
      (** the request's shard-map epoch (a [Forward] envelope's stamp,
          or a [Shard_map_set] going backwards) does not match the
          shard's installed epoch: refetch the map and retry. *)

type health = {
  healthy : bool;
  detail : string;  (** human-readable catalog/self-check summary *)
  in_flight : int;  (** queries executing right now *)
  queued : int;  (** queries waiting for an execution slot *)
  served : int;  (** requests answered since startup *)
  mode : string;
      (** ["serving"], ["draining"] or ["degraded: <reason>"]. *)
}

type response =
  | Rows of Sqp_relalg.Relation.t  (** result of [Range_search]/[Query] *)
  | Text of string  (** result of [Explain] *)
  | Analyzed of { rendered : string; rows : Sqp_relalg.Relation.t }
      (** result of [Analyze] *)
  | Health_report of health
  | Error of { code : error_code; message : string }
  | Ack of { applied : int; seq : int }
      (** Result of a mutation: [applied] ops took effect, [seq] is the
          table's batch sequence number after the mutation (reads after
          this sequence see the batch).  A replayed mutation (same
          idempotency key) returns the {e original} [Ack], byte for
          byte.  Through a router, [applied] sums the per-shard counts
          and [seq] is the highest per-shard sequence touched. *)
  | Shard_map of Shard_map.t  (** result of [Shard_map_get] *)

val error_code_name : error_code -> string
(** Stable lower-snake name, e.g. ["overloaded"]. *)

(** {1 Payload codecs}

    These encode/decode the frame {e payload} (version byte, tag byte,
    body) — the length prefix belongs to the frame I/O below. *)

val encode_request : request_frame -> string
(** Always encodes at version {!version}.
    @raise Invalid_argument if [idem] is set on a tag outside 6-9. *)

val decode_request : string -> (request_frame, error_code * string) result
(** [Error (Unsupported_version, _)] on a version byte other than
    {!version}, [Error (Bad_request, _)] on anything else malformed. *)

val range_box :
  Sqp_zorder.Space.t -> lo:int array -> hi:int array -> Sqp_geom.Box.t
(** The one bounds check of [Range_search] and [Live_range] requests,
    the same on a server and through a router: the box, if [lo] and
    [hi] have one coordinate per axis of [space], lie inside its grid
    and are not inverted.
    @raise Invalid_argument otherwise (answered as [Bad_request]). *)

val encode_response : response -> string
(** Always encodes at version {!version}.  [Rows r] is written once,
    into a string of exactly its encoded size. *)

(** {2 Streamed row answers}

    A [Rows] answer whose columns are all [TInt], written row by row
    into one string allocated at exactly its encoded size: byte for
    byte what [encode_response (Rows r)] writes for the relation [r] of
    those rows.  The server answers range reads this way straight from
    the merge, with no relation built. *)

type int_rows

val int_rows : name:string -> Sqp_relalg.Schema.t -> count:int -> int_rows
(** Allocate the answer for [count] rows of relation [name] with this
    schema and write its version, tag and relation header.
    @raise Invalid_argument if a column is not [TInt]. *)

val add_int : int_rows -> int -> unit
(** Write the next cell, row after row, in schema order.
    @raise Invalid_argument past the last cell of the last row. *)

val int_rows_payload : int_rows -> string
(** The payload, once every row is written; the writer must not be
    used after this.
    @raise Invalid_argument if cells are missing. *)

val decode_response : string -> (response, string) result
(** [Error] on a version byte other than {!version} or any malformed
    payload. *)

(** {1 Frame I/O}

    Blocking reads/writes of whole frames.  [EINTR] is retried; short
    reads are completed or reported.  All I/O goes through an {!io}
    record, so tests can thread a fault-injecting shim
    ({!Faulty_net}) under every frame without touching this module. *)

type io = {
  read : bytes -> int -> int -> int;  (** [read buf pos len], as read(2) *)
  write : bytes -> int -> int -> int;  (** as write(2) *)
  wait_read : float -> bool;
      (** Wait up to the given seconds (negative = forever) for
          readability; [false] on timeout. *)
  wait_write : float -> bool;  (** likewise for writability *)
}
(** A socket's I/O surface — the seam where fault injection and
    timeouts plug in. *)

val io_of_fd : Unix.file_descr -> io
(** The honest implementation: read/write/select on the descriptor. *)

type read_error =
  | Eof  (** clean end of stream before any byte of a frame *)
  | Truncated  (** the stream ended mid-frame *)
  | Oversized of int  (** advertised payload length out of \[2, max\] *)
  | Stalled of { mid_frame : bool }
      (** a timeout expired: [mid_frame] distinguishes a peer that went
          quiet inside a frame (slow-loris, network partition) from one
          that simply sent nothing (idle session) *)

val read_error_to_string : read_error -> string

val read_frame_io :
  ?max_bytes:int ->
  ?idle_timeout:float ->
  ?frame_timeout:float ->
  io ->
  (string, read_error) result
(** Read one length-prefixed payload.  [idle_timeout] bounds the wait
    for the frame to {e start} (through the 4-byte prefix);
    [frame_timeout] separately bounds reading the payload once the
    length is known — so a peer dribbling one byte per minute cannot pin
    the reader.  After [Oversized] or [Stalled] the stream position is
    unusable; close the connection. *)

val write_frame_io : ?timeout:float -> io -> string -> unit
(** Write the length prefix and payload; [timeout] bounds the whole
    frame.
    @raise Invalid_argument if the payload exceeds [u32] or is shorter
    than 2 bytes.
    @raise Unix.Unix_error as write(2) does (e.g. [EPIPE]), or
    [ETIMEDOUT] if the timeout expires. *)

val read_frame :
  ?max_bytes:int -> Unix.file_descr -> (string, read_error) result
(** [read_frame_io] over {!io_of_fd}, no timeouts. *)

val write_frame : Unix.file_descr -> string -> unit
(** [write_frame_io] over {!io_of_fd}, no timeout. *)
