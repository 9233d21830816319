module P = Protocol

type error =
  | Remote of { code : P.error_code; message : string }
  | Transport of { attempts : int; message : string }

let error_to_string = function
  | Remote { code; message } ->
      Printf.sprintf "%s: %s" (P.error_code_name code) message
  | Transport { attempts; message } ->
      Printf.sprintf "transport failure after %d attempt%s: %s" attempts
        (if attempts = 1 then "" else "s")
        message

type 'a reply = ('a, error) result

type conn = { fd : Unix.file_descr; io : P.io }

type t = {
  host : string;
  port : int;
  wrap : (Unix.file_descr -> P.io) option;
  connect_timeout : float;
  max_attempts : int;
  client_id : int;
  mutable rng : int64;  (* SplitMix64 state for backoff jitter *)
  mutable seq : int;  (* per-client idempotency counter *)
  mutable conn : conn option;
  mutable closed : bool;
  mutable retries : int;
  mutable reconnects : int;
}

let client_id t = t.client_id
let retries t = t.retries
let reconnects t = t.reconnects

(* SplitMix64: the jitter source.  Deterministic per client (seeded from
   the client id), so chaos runs with pinned ids replay their backoff
   schedule exactly. *)
let next_u64 t =
  t.rng <- Int64.add t.rng 0x9E3779B97F4A7C15L;
  let z = t.rng in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L
  in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL
  in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* uniform in [0.5, 1.5): +/-50% is plenty to spread a retry herd *)
let next_jitter t =
  0.5
  +. Int64.to_float (Int64.shift_right_logical (next_u64 t) 11)
     /. 9007199254740992.

(* Client ids only need to be collision-unlikely across concurrently
   live clients: mix wall clock, pid and a process-local counter. *)
let id_counter = Atomic.make 0

let fresh_client_id () =
  let raw =
    Int64.logxor
      (Int64.bits_of_float (Unix.gettimeofday ()))
      (Int64.of_int
         ((Unix.getpid () * 0x10001)
         lxor (Atomic.fetch_and_add id_counter 1 lsl 24)))
  in
  let z = Int64.add (Int64.mul raw 0x9E3779B97F4A7C15L) 0x9E3779B97F4A7C15L in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L
  in
  Int64.to_int z land max_int

let default_connect_timeout = 5.0
let max_connect_timeout = 120.0

(* Bounded connect: non-blocking [connect] + [select], so a black-holed
   address (firewall drop, dead host) surfaces as [ETIMEDOUT] after
   [timeout] seconds instead of hanging for the kernel's SYN-retry
   minutes. *)
let dial ~timeout ~host ~port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     let addr = Unix.ADDR_INET (Unix.inet_addr_of_string host, port) in
     Unix.set_nonblock fd;
     (try Unix.connect fd addr with
     | Unix.Unix_error ((Unix.EINPROGRESS | Unix.EWOULDBLOCK), _, _) -> (
         match Unix.select [] [ fd ] [] timeout with
         | _, [], _ ->
             raise
               (Unix.Unix_error
                  (Unix.ETIMEDOUT, "connect", Printf.sprintf "%s:%d" host port))
         | _ -> (
             (* Writable means *decided*, not connected: read the verdict. *)
             match Unix.getsockopt_error fd with
             | None -> ()
             | Some err ->
                 raise
                   (Unix.Unix_error
                      (err, "connect", Printf.sprintf "%s:%d" host port)))));
     Unix.clear_nonblock fd;
     Unix.setsockopt fd Unix.TCP_NODELAY true
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  fd

let io_for wrap fd = match wrap with Some w -> w fd | None -> P.io_of_fd fd

let connect ?(host = "127.0.0.1") ?client_id
    ?(connect_timeout = default_connect_timeout) ?(max_attempts = 4) ?wrap
    ~port () =
  if max_attempts < 1 then invalid_arg "Client.connect: max_attempts < 1";
  if not (connect_timeout > 0.) || connect_timeout > max_connect_timeout then
    invalid_arg "Client.connect: connect_timeout must be in (0, 120]";
  (* A server that hung up must surface as EPIPE, not kill the process. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let fd = dial ~timeout:connect_timeout ~host ~port in
  let client_id =
    match client_id with Some id -> id | None -> fresh_client_id ()
  in
  {
    host;
    port;
    wrap;
    connect_timeout;
    max_attempts;
    client_id;
    rng = Int64.of_int client_id;
    seq = 0;
    conn = Some { fd; io = io_for wrap fd };
    closed = false;
    retries = 0;
    reconnects = 0;
  }

let drop_conn t =
  match t.conn with
  | None -> ()
  | Some { fd; _ } ->
      t.conn <- None;
      (try Unix.close fd with Unix.Unix_error _ -> ())

let close t =
  if not t.closed then begin
    t.closed <- true;
    drop_conn t
  end

let with_connect ?host ?client_id ?connect_timeout ?max_attempts ?wrap ~port f =
  let t = connect ?host ?client_id ?connect_timeout ?max_attempts ?wrap ~port () in
  Fun.protect ~finally:(fun () -> close t) (fun () -> f t)

let ensure_conn t =
  match t.conn with
  | Some c -> c
  | None ->
      let fd = dial ~timeout:t.connect_timeout ~host:t.host ~port:t.port in
      let c = { fd; io = io_for t.wrap fd } in
      t.conn <- Some c;
      t.reconnects <- t.reconnects + 1;
      c

let now = Unix.gettimeofday
let backoff_base = 0.005
let backoff_cap = 0.2

let call ?deadline_ms t request =
  if t.closed then invalid_arg "Client.call: client is closed";
  let deadline =
    match deadline_ms with
    | Some ms -> Some (now () +. (float_of_int ms /. 1000.))
    | None -> None
  in
  (* Mutations get one idempotency key per logical call, reused verbatim
     across every retry — the server's dedup window turns "sent twice"
     into "applied once". *)
  let idem =
    match request with
    | P.Insert _ | P.Delete _ | P.Create_index _ ->
        t.seq <- t.seq + 1;
        Some { P.client_id = t.client_id; request_seq = t.seq }
    | _ -> None
  in
  let expired () =
    match deadline with None -> false | Some d -> now () >= d
  in
  (* Ship the budget *remaining at send time*, so the server spends only
     what this attempt still has. *)
  let remaining_ms () =
    match deadline with
    | None -> None
    | Some d -> Some (max 1 (int_of_float (ceil ((d -. now ()) *. 1000.))))
  in
  let backoff attempt =
    let d =
      min backoff_cap (backoff_base *. (2. ** float_of_int (attempt - 1)))
      *. next_jitter t
    in
    let d =
      match deadline with
      | None -> d
      | Some dl -> min d (max 0. (dl -. now () -. 0.001))
    in
    if d > 0. then Thread.delay d
  in
  let attempt_once () =
    match
      let { io; _ } = ensure_conn t in
      let payload =
        P.encode_request { P.deadline_ms = remaining_ms (); idem; request }
      in
      P.write_frame_io io payload;
      P.read_frame_io io
    with
    | Ok bytes -> (
        match P.decode_response bytes with
        | Ok resp -> `Answered resp
        | Error m -> `Poisoned ("undecodable response: " ^ m))
    | Error e -> `Torn (P.read_error_to_string e)
    | exception Unix.Unix_error (err, fn, _) ->
        `Torn (Printf.sprintf "%s: %s" fn (Unix.error_message err))
  in
  let rec go attempt =
    match attempt_once () with
    | `Answered (P.Error { code = (P.Overloaded | P.Shutting_down) as code; message })
      when deadline <> None && not (expired ()) ->
        (* The server said "come back later" — worth waiting only when
           the caller gave us a deadline budget to spend. *)
        t.retries <- t.retries + 1;
        backoff attempt;
        if expired () then Error (Remote { code; message })
        else go (attempt + 1)
    | `Answered (P.Error { code; message }) -> Error (Remote { code; message })
    | `Answered resp -> Ok resp
    | `Poisoned message ->
        (* A frame we cannot decode would be replayed verbatim by the
           dedup window: retrying cannot help, fail fast. *)
        drop_conn t;
        Error (Transport { attempts = attempt; message })
    | `Torn message ->
        drop_conn t;
        let retry =
          match deadline with
          | Some _ -> not (expired ())
          | None -> attempt < t.max_attempts
        in
        if not retry then Error (Transport { attempts = attempt; message })
        else begin
          t.retries <- t.retries + 1;
          backoff attempt;
          if expired () then Error (Transport { attempts = attempt; message })
          else go (attempt + 1)
        end
  in
  go 1

(* {1 Typed helpers} *)

let expecting what decode result =
  match result with
  | Error e -> Error e
  | Ok resp -> (
      match decode resp with
      | Some v -> Ok v
      | None ->
          Error
            (Transport
               { attempts = 1; message = "protocol violation: expected " ^ what }))

let range_search ?deadline_ms t ~lo ~hi =
  expecting "rows"
    (function P.Rows r -> Some r | _ -> None)
    (call ?deadline_ms t (P.Range_search { lo; hi }))

let query ?deadline_ms t plan =
  expecting "rows"
    (function P.Rows r -> Some r | _ -> None)
    (call ?deadline_ms t (P.Query plan))

let explain ?deadline_ms t plan =
  expecting "text"
    (function P.Text s -> Some s | _ -> None)
    (call ?deadline_ms t (P.Explain plan))

let analyze ?deadline_ms t plan =
  expecting "analysis"
    (function P.Analyzed { rendered; rows } -> Some (rendered, rows) | _ -> None)
    (call ?deadline_ms t (P.Analyze plan))

let insert ?deadline_ms t ~table points =
  expecting "ack"
    (function P.Ack { applied; seq } -> Some (applied, seq) | _ -> None)
    (call ?deadline_ms t (P.Insert { table; points }))

let delete ?deadline_ms t ~table points =
  expecting "ack"
    (function P.Ack { applied; seq } -> Some (applied, seq) | _ -> None)
    (call ?deadline_ms t (P.Delete { table; points }))

let create_index ?deadline_ms t ~table =
  expecting "ack"
    (function P.Ack { applied; seq } -> Some (applied, seq) | _ -> None)
    (call ?deadline_ms t (P.Create_index { table }))

let refresh_stats ?deadline_ms t =
  expecting "text"
    (function P.Text s -> Some s | _ -> None)
    (call ?deadline_ms t P.Refresh_stats)

let live_range ?deadline_ms t ~table ~lo ~hi =
  expecting "rows"
    (function P.Rows r -> Some r | _ -> None)
    (call ?deadline_ms t (P.Live_range { table; lo; hi }))

let shard_map_get ?deadline_ms t =
  expecting "shard map"
    (function P.Shard_map m -> Some m | _ -> None)
    (call ?deadline_ms t P.Shard_map_get)

let shard_map_set ?deadline_ms t ~map ~self =
  expecting "ack"
    (function P.Ack { applied; seq } -> Some (applied, seq) | _ -> None)
    (call ?deadline_ms t (P.Shard_map_set { map; self }))

let forward ?deadline_ms t ~epoch ~payload =
  call ?deadline_ms t (P.Forward { epoch; payload })

let health t =
  expecting "health report"
    (function P.Health_report h -> Some h | _ -> None)
    (call t P.Health)

let recover t =
  expecting "text"
    (function P.Text s -> Some s | _ -> None)
    (call t P.Recover)
