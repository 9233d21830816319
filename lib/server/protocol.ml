module Wire = Sqp_relalg.Wire

let version = 2
let default_max_frame_bytes = 8 * 1024 * 1024

(* {1 Messages} *)

type request =
  | Range_search of { lo : int array; hi : int array }
  | Query of Sqp_relalg.Wire.plan
  | Explain of Sqp_relalg.Wire.plan
  | Analyze of Sqp_relalg.Wire.plan
  | Health
  | Insert of { table : string; points : (int array * int) list }
  | Delete of { table : string; points : int array list }
  | Create_index of { table : string }
  | Live_range of { table : string; lo : int array; hi : int array }
  | Refresh_stats
  | Recover
  | Shard_map_get
  | Shard_map_set of { map : Shard_map.t; self : int }
  | Forward of { epoch : int; payload : string }

type idem = { client_id : int; request_seq : int }

type request_frame = {
  deadline_ms : int option;
  idem : idem option;
  request : request;
}

type error_code =
  | Bad_request
  | Unsupported_version
  | Unknown_relation
  | Overloaded
  | Timed_out
  | Shutting_down
  | Server_error
  | Degraded
  | Stale_epoch

type health = {
  healthy : bool;
  detail : string;
  in_flight : int;
  queued : int;
  served : int;
  mode : string;
}

type response =
  | Rows of Sqp_relalg.Relation.t
  | Text of string
  | Analyzed of { rendered : string; rows : Sqp_relalg.Relation.t }
  | Health_report of health
  | Error of { code : error_code; message : string }
  | Ack of { applied : int; seq : int }
  | Shard_map of Shard_map.t

let error_code_name = function
  | Bad_request -> "bad_request"
  | Unsupported_version -> "unsupported_version"
  | Unknown_relation -> "unknown_relation"
  | Overloaded -> "overloaded"
  | Timed_out -> "timed_out"
  | Shutting_down -> "shutting_down"
  | Server_error -> "server_error"
  | Degraded -> "degraded"
  | Stale_epoch -> "stale_epoch"

let error_code_byte = function
  | Bad_request -> 0
  | Unsupported_version -> 1
  | Unknown_relation -> 2
  | Overloaded -> 3
  | Timed_out -> 4
  | Shutting_down -> 5
  | Server_error -> 6
  | Degraded -> 7
  | Stale_epoch -> 8

let error_code_of_byte = function
  | 0 -> Bad_request
  | 1 -> Unsupported_version
  | 2 -> Unknown_relation
  | 3 -> Overloaded
  | 4 -> Timed_out
  | 5 -> Shutting_down
  | 6 -> Server_error
  | 7 -> Degraded
  | 8 -> Stale_epoch
  | n -> raise (Wire.Corrupt (Printf.sprintf "unknown error code %d" n))

(* {1 Payload codecs}

   Request payload =
     version:u8 | tag:u8 | deadline:u32 | idem:u8 [client:i64 seq:i64] | body *)

let write_int_array = Wire.write_int_array

let read_int_array = Wire.read_int_array

let request_tag = function
  | Range_search _ -> 1
  | Query _ -> 2
  | Explain _ -> 3
  | Analyze _ -> 4
  | Health -> 5
  | Insert _ -> 6
  | Delete _ -> 7
  | Create_index _ -> 8
  | Live_range _ -> 9
  | Refresh_stats -> 10
  | Recover -> 11
  | Shard_map_get -> 12
  | Shard_map_set _ -> 13
  | Forward _ -> 14

(* Tags allowed to carry an idempotency key: the live-table frames.  The
   client only keys the true mutations (6-8), but a keyed 9 is harmless
   (replaying a read is idempotent by definition). *)
let idem_tag tag = tag >= 6 && tag <= 9

(* The bounds check of [Range_search] and [Live_range], the same on a
   server and through a router. *)
let range_box space ~lo ~hi =
  let dims = Sqp_zorder.Space.dims space and side = Sqp_zorder.Space.side space in
  if Array.length lo <> dims || Array.length hi <> dims then
    invalid_arg
      (Printf.sprintf "range bounds must have %d coordinates, got %d/%d" dims
         (Array.length lo) (Array.length hi));
  let inside c = 0 <= c && c < side in
  if not (Array.for_all inside lo && Array.for_all inside hi) then
    invalid_arg
      (Printf.sprintf "range bounds outside the %s grid"
         (String.concat "x" (List.init dims (fun _ -> string_of_int side))));
  Sqp_geom.Box.make ~lo ~hi (* raises on inverted bounds *)

let encode_request { deadline_ms; idem; request } =
  let b = Buffer.create 64 in
  let tag = request_tag request in
  (match idem with
  | Some _ when not (idem_tag tag) ->
      invalid_arg "Protocol.encode_request: idempotency key on a non-mutation frame"
  | _ -> ());
  Wire.write_u8 b version;
  Wire.write_u8 b tag;
  Wire.write_u32 b (match deadline_ms with None -> 0 | Some ms -> max 1 ms);
  (match idem with
  | None -> Wire.write_u8 b 0
  | Some { client_id; request_seq } ->
      Wire.write_u8 b 1;
      Wire.write_i64 b client_id;
      Wire.write_i64 b request_seq);
  (match request with
  | Range_search { lo; hi } ->
      write_int_array b lo;
      write_int_array b hi
  | Query plan | Explain plan | Analyze plan -> Wire.write_plan b plan
  | Health -> ()
  | Insert { table; points } ->
      Wire.write_string b table;
      Wire.write_point_list b points
  | Delete { table; points } ->
      Wire.write_string b table;
      Wire.write_u32 b (List.length points);
      List.iter (write_int_array b) points
  | Create_index { table } -> Wire.write_string b table
  | Live_range { table; lo; hi } ->
      Wire.write_string b table;
      write_int_array b lo;
      write_int_array b hi
  | Refresh_stats -> ()
  | Recover -> ()
  | Shard_map_get -> ()
  | Shard_map_set { map; self } ->
      Shard_map.write b map;
      (* [self]: index of the recipient's own entry, or -1 when the
         recipient owns no range under this map. *)
      Wire.write_i64 b self
  | Forward { epoch; payload } ->
      if String.length payload >= 2 && Char.code payload.[1] = 14 then
        invalid_arg "Protocol.encode_request: nested Forward envelope";
      Wire.write_u32 b epoch;
      Wire.write_string b payload);
  Buffer.contents b

let decode_request payload =
  if String.length payload < 2 then
    Stdlib.Error (Bad_request, "payload shorter than 2 bytes")
  else
    let c = Wire.cursor payload in
    let ver = Wire.read_u8 c in
    if ver <> version then
      Stdlib.Error
        ( Unsupported_version,
          Printf.sprintf "protocol version %d; this server speaks %d" ver version
        )
    else
      let tag = Wire.read_u8 c in
      match
        let deadline_ms =
          match Wire.read_u32 c with 0 -> None | ms -> Some ms
        in
        let idem =
          match Wire.read_u8 c with
          | 0 -> None
          | 1 ->
              if not (idem_tag tag) then
                raise
                  (Wire.Corrupt
                     (Printf.sprintf
                        "idempotency key on request tag %d (only 6-9 may carry one)"
                        tag));
              let client_id = Wire.read_i64 c in
              let request_seq = Wire.read_i64 c in
              Some { client_id; request_seq }
          | n -> raise (Wire.Corrupt (Printf.sprintf "bad idempotency flag %d" n))
        in
        let request =
          match tag with
          | 1 ->
              let lo = read_int_array c in
              let hi = read_int_array c in
              if Array.length lo <> Array.length hi then
                raise (Wire.Corrupt "lo/hi dimensionality mismatch");
              Range_search { lo; hi }
          | 2 -> Query (Wire.read_plan c)
          | 3 -> Explain (Wire.read_plan c)
          | 4 -> Analyze (Wire.read_plan c)
          | 5 -> Health
          | 6 ->
              let table = Wire.read_string c in
              let points = Wire.read_point_list c in
              Insert { table; points }
          | 7 ->
              let table = Wire.read_string c in
              let n = Wire.read_u32 c in
              let points = ref [] in
              for _ = 1 to n do
                points := read_int_array c :: !points
              done;
              Delete { table; points = List.rev !points }
          | 8 -> Create_index { table = Wire.read_string c }
          | 9 ->
              let table = Wire.read_string c in
              let lo = read_int_array c in
              let hi = read_int_array c in
              if Array.length lo <> Array.length hi then
                raise (Wire.Corrupt "lo/hi dimensionality mismatch");
              Live_range { table; lo; hi }
          | 10 -> Refresh_stats
          | 11 -> Recover
          | 12 -> Shard_map_get
          | 13 ->
              let map = Shard_map.read c in
              let self = Wire.read_i64 c in
              if self < -1 || self >= List.length map.Shard_map.entries then
                raise (Wire.Corrupt "shard map self index out of range");
              Shard_map_set { map; self }
          | 14 ->
              let epoch = Wire.read_u32 c in
              let payload = Wire.read_string c in
              if String.length payload < 2 then
                raise (Wire.Corrupt "forwarded payload shorter than 2 bytes");
              (* One level only: a Forward carrying a Forward is a
                 routing loop, not a request. *)
              if Char.code payload.[1] = 14 then
                raise (Wire.Corrupt "nested Forward envelope");
              Forward { epoch; payload }
          | t -> raise (Wire.Corrupt (Printf.sprintf "unknown request tag %d" t))
        in
        if not (Wire.at_end c) then raise (Wire.Corrupt "trailing bytes");
        { deadline_ms; idem; request }
      with
      | frame -> Stdlib.Ok frame
      | exception Wire.Corrupt m -> Stdlib.Error (Bad_request, m)

(* {2 Rows answers}

   A [Rows] payload is the version, the tag, then the relation.  Both of
   its writers allocate it once at its exact size and write the relation
   header with [Wire.put_relation_header]. *)

let rows_tag = 1

let rows_buffer relation_bytes =
  let buf = Bytes.create (2 + relation_bytes) in
  Bytes.set_uint8 buf 0 version;
  Bytes.set_uint8 buf 1 rows_tag;
  buf

type int_rows = { buf : bytes; mutable pos : int }

let int_rows ~name schema ~count =
  if
    not
      (List.for_all
         (fun (_, ty) -> ty = Sqp_relalg.Value.TInt)
         (Sqp_relalg.Schema.attrs schema))
  then invalid_arg "Protocol.int_rows: a column is not TInt";
  let cells = count * Sqp_relalg.Schema.arity schema in
  let buf =
    rows_buffer (Wire.relation_header_size ~name schema + (cells * Wire.int_cell_size))
  in
  { buf; pos = Wire.put_relation_header buf 2 ~name schema ~count }

let add_int w i = w.pos <- Wire.put_int_cell w.buf w.pos i

let int_rows_payload w =
  if w.pos <> Bytes.length w.buf then
    invalid_arg "Protocol.int_rows_payload: fewer cells than the rows counted";
  Bytes.unsafe_to_string w.buf

let buffered tag write =
  let b = Buffer.create 256 in
  Wire.write_u8 b version;
  Wire.write_u8 b tag;
  write b;
  Buffer.contents b

let encode_response = function
  | Rows r ->
      let buf = rows_buffer (Wire.relation_size r) in
      ignore (Wire.put_relation buf 2 r);
      Bytes.unsafe_to_string buf
  | Text s -> buffered 2 (fun b -> Wire.write_string b s)
  | Analyzed { rendered; rows } ->
      buffered 3 (fun b ->
          Wire.write_string b rendered;
          Wire.write_relation b rows)
  | Health_report h ->
      buffered 4 (fun b ->
          Wire.write_u8 b (if h.healthy then 1 else 0);
          Wire.write_string b h.detail;
          Wire.write_i64 b h.in_flight;
          Wire.write_i64 b h.queued;
          Wire.write_i64 b h.served;
          Wire.write_string b h.mode)
  | Error { code; message } ->
      buffered 5 (fun b ->
          Wire.write_u8 b (error_code_byte code);
          Wire.write_string b message)
  | Ack { applied; seq } ->
      buffered 6 (fun b ->
          Wire.write_i64 b applied;
          Wire.write_i64 b seq)
  | Shard_map map -> buffered 7 (fun b -> Shard_map.write b map)

let decode_response payload =
  if String.length payload < 2 then Stdlib.Error "payload shorter than 2 bytes"
  else
    let c = Wire.cursor payload in
    match
      let ver = Wire.read_u8 c in
      if ver <> version then
        raise (Wire.Corrupt (Printf.sprintf "unsupported response version %d" ver));
      let resp =
        match Wire.read_u8 c with
        | 1 -> Rows (Wire.read_relation c)
        | 2 -> Text (Wire.read_string c)
        | 3 ->
            let rendered = Wire.read_string c in
            let rows = Wire.read_relation c in
            Analyzed { rendered; rows }
        | 4 ->
            let healthy = Wire.read_u8 c <> 0 in
            let detail = Wire.read_string c in
            let in_flight = Wire.read_i64 c in
            let queued = Wire.read_i64 c in
            let served = Wire.read_i64 c in
            let mode = Wire.read_string c in
            Health_report { healthy; detail; in_flight; queued; served; mode }
        | 5 ->
            let code = error_code_of_byte (Wire.read_u8 c) in
            let message = Wire.read_string c in
            Error { code; message }
        | 6 ->
            let applied = Wire.read_i64 c in
            let seq = Wire.read_i64 c in
            Ack { applied; seq }
        | 7 -> Shard_map (Shard_map.read c)
        | t -> raise (Wire.Corrupt (Printf.sprintf "unknown response tag %d" t))
      in
      if not (Wire.at_end c) then raise (Wire.Corrupt "trailing bytes");
      resp
    with
    | resp -> Stdlib.Ok resp
    | exception Wire.Corrupt m -> Stdlib.Error m

(* {1 Frame I/O} *)

type read_error =
  | Eof
  | Truncated
  | Oversized of int
  | Stalled of { mid_frame : bool }

let read_error_to_string = function
  | Eof -> "clean end of stream"
  | Truncated -> "stream ended mid-frame"
  | Oversized n -> Printf.sprintf "advertised payload of %d bytes out of range" n
  | Stalled { mid_frame = true } -> "peer stalled mid-frame"
  | Stalled { mid_frame = false } -> "idle timeout waiting for a frame"

let rec retry_intr f = try f () with Unix.Unix_error (Unix.EINTR, _, _) -> retry_intr f

type io = {
  read : bytes -> int -> int -> int;
  write : bytes -> int -> int -> int;
  wait_read : float -> bool;
  wait_write : float -> bool;
}

let io_of_fd fd =
  {
    read = (fun buf pos len -> Unix.read fd buf pos len);
    (* [single_write], not [write]: [Unix.write] loops until the whole
       buffer is gone, which would let one large frame sail past the
       select-based write deadline. *)
    write = (fun buf pos len -> Unix.single_write fd buf pos len);
    wait_read =
      (fun timeout ->
        match retry_intr (fun () -> Unix.select [ fd ] [] [] timeout) with
        | r, _, _ -> r <> []);
    wait_write =
      (fun timeout ->
        match retry_intr (fun () -> Unix.select [] [ fd ] [] timeout) with
        | _, w, _ -> w <> []);
  }

let now () = Unix.gettimeofday ()

(* Read exactly [n] bytes through [io] before [deadline] (absolute;
   [None] = no limit): the bytes, or how far we got when the stream
   ended or the peer stalled.  [EINTR] retries; a ready-then-blocking
   descriptor is tolerated (we only [read] after [wait_read]). *)
let really_read_io io ?deadline n =
  let buf = Bytes.create n in
  let rec go off =
    if off = n then `Ok (Bytes.unsafe_to_string buf)
    else
      let budget = match deadline with None -> -1.0 | Some d -> d -. now () in
      if (match deadline with Some _ -> budget <= 0.0 | None -> false) then
        `Stalled off
      else if not (io.wait_read budget) then `Stalled off
      else
        match io.read buf off (n - off) with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
        | 0 -> `Eof off
        | k -> go (off + k)
  in
  go 0

let deadline_in = Option.map (fun s -> now () +. s)

let read_frame_io ?(max_bytes = default_max_frame_bytes) ?idle_timeout
    ?frame_timeout io =
  match really_read_io io ?deadline:(deadline_in idle_timeout) 4 with
  | `Eof 0 -> Stdlib.Error Eof
  | `Eof _ -> Stdlib.Error Truncated
  | `Stalled consumed -> Stdlib.Error (Stalled { mid_frame = consumed > 0 })
  | `Ok prefix ->
      let byte i = Char.code prefix.[i] in
      let len = (byte 0 lsl 24) lor (byte 1 lsl 16) lor (byte 2 lsl 8) lor byte 3 in
      if len < 2 || len > max_bytes then Stdlib.Error (Oversized len)
      else (
        match really_read_io io ?deadline:(deadline_in frame_timeout) len with
        | `Eof _ -> Stdlib.Error Truncated
        | `Stalled _ -> Stdlib.Error (Stalled { mid_frame = true })
        | `Ok payload -> Stdlib.Ok payload)

let really_write_io io ?deadline s =
  let buf = Bytes.unsafe_of_string s in
  let n = Bytes.length buf in
  let rec go off =
    if off < n then begin
      let budget = match deadline with None -> -1.0 | Some d -> d -. now () in
      if
        (match deadline with Some _ -> budget <= 0.0 | None -> false)
        || not (io.wait_write budget)
      then raise (Unix.Unix_error (Unix.ETIMEDOUT, "write_frame", ""));
      match io.write buf off (n - off) with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
      | k -> go (off + k)
    end
  in
  go 0

let write_frame_io ?timeout io payload =
  let n = String.length payload in
  if n < 2 || n > 0xffff_ffff then
    invalid_arg "Protocol.write_frame: payload length out of range";
  let prefix = Bytes.create 4 in
  Bytes.set prefix 0 (Char.chr ((n lsr 24) land 0xff));
  Bytes.set prefix 1 (Char.chr ((n lsr 16) land 0xff));
  Bytes.set prefix 2 (Char.chr ((n lsr 8) land 0xff));
  Bytes.set prefix 3 (Char.chr (n land 0xff));
  (* One deadline covers prefix + payload: a frame is written whole or
     the connection is torn down by the caller. *)
  let deadline = deadline_in timeout in
  (* Two writes, and the kernel does not coalesce them: TCP_NODELAY is
     unset on accepted sockets, so Nagle holds the payload behind the
     unacknowledged 4-byte prefix until the peer's delayed ACK arrives.
     That is the ~40-ms stall of every served response (ROADMAP item
     2, which writes the frame once and sets TCP_NODELAY). *)
  really_write_io io ?deadline (Bytes.unsafe_to_string prefix);
  really_write_io io ?deadline payload

let read_frame ?max_bytes fd = read_frame_io ?max_bytes (io_of_fd fd)

let write_frame fd payload = write_frame_io (io_of_fd fd) payload
