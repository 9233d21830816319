(* Delta-encoded runs of packed z values: LevelDB-style front coding
   adapted to bit-granular z values.  See zrun.mli for the format. *)

module P = Zpacked

type t = {
  data : string;
  off : int;            (* absolute offset of the header in [data] *)
  body : int;           (* absolute offset of the first entry *)
  stop : int;           (* absolute offset one past the last entry *)
  count : int;
  interval : int;
  fixed : int option;   (* all values share this length; lengths elided *)
  n_restarts : int;
}

let flag_fixed = 0x01

let header_bytes n_restarts = 7 + (2 * n_restarts)

let count t = t.count

let byte_length t = t.stop - t.off

let restart_interval t = t.interval

let to_string t = String.sub t.data t.off (t.stop - t.off)

let fixed_len t = t.fixed

let err fmt = Printf.ksprintf (fun s -> invalid_arg ("Zrun: " ^ s)) fmt

let key_bytes len = (len + 7) / 8

(* {1 Encoding} *)

let encode ?(restart_interval = 16) ?fixed_len zs =
  let n = Array.length zs in
  if n > 0xFFFF then err "run of %d values (max 65535)" n;
  if restart_interval < 1 || restart_interval > 0xFF then
    err "restart interval %d out of [1, 255]" restart_interval;
  (match fixed_len with
  | None -> ()
  | Some l ->
      if l < 0 || l > P.max_bits then err "fixed length %d out of range" l;
      Array.iter
        (fun z ->
          if P.length z <> l then
            err "fixed-length run: value of length %d, expected %d" (P.length z) l)
        zs);
  let n_restarts = if n = 0 then 0 else ((n - 1) / restart_interval) + 1 in
  let body = Buffer.create 256 in
  let restarts = Array.make n_restarts 0 in
  let variable = fixed_len = None in
  for i = 0 to n - 1 do
    let z = zs.(i) in
    let len = P.length z in
    if i mod restart_interval = 0 then begin
      restarts.(i / restart_interval) <- Buffer.length body;
      if variable then Buffer.add_uint8 body len;
      Buffer.add_string body (P.suffix_bytes z ~pos:0)
    end
    else begin
      let shared = P.common_prefix_len zs.(i - 1) z in
      Buffer.add_uint8 body shared;
      if variable then Buffer.add_uint8 body len;
      Buffer.add_string body (P.suffix_bytes z ~pos:shared)
    end
  done;
  let out = Buffer.create (header_bytes n_restarts + Buffer.length body) in
  Buffer.add_uint8 out (if variable then 0 else flag_fixed);
  Buffer.add_uint8 out (match fixed_len with Some l -> l | None -> 0);
  Buffer.add_uint8 out restart_interval;
  Buffer.add_uint16_be out n;
  Buffer.add_uint16_be out n_restarts;
  Array.iter
    (fun r ->
      if r > 0xFFFF then err "run body too large for 16-bit restart offsets";
      Buffer.add_uint16_be out r)
    restarts;
  Buffer.add_buffer out body;
  let data = Buffer.contents out in
  {
    data;
    off = 0;
    body = header_bytes n_restarts;
    stop = String.length data;
    count = n;
    interval = restart_interval;
    fixed = fixed_len;
    n_restarts;
  }

(* {1 Parsing} *)

let u8 s i = Char.code s.[i]

let u16 s i = (u8 s i lsl 8) lor u8 s (i + 1)

let of_string ?(pos = 0) ?len data =
  let stop =
    match len with Some l -> pos + l | None -> String.length data
  in
  if pos < 0 || stop > String.length data || stop - pos < 7 then
    err "truncated run header";
  let flags = u8 data pos in
  let fixed = if flags land flag_fixed <> 0 then Some (u8 data (pos + 1)) else None in
  let interval = u8 data (pos + 2) in
  let count = u16 data (pos + 3) in
  let n_restarts = u16 data (pos + 5) in
  if flags land lnot flag_fixed <> 0 then err "unknown run flags 0x%02x" flags;
  if interval < 1 then err "zero restart interval";
  let expected_restarts = if count = 0 then 0 else ((count - 1) / interval) + 1 in
  if n_restarts <> expected_restarts then
    err "restart count %d inconsistent with %d values at interval %d" n_restarts
      count interval;
  let body = pos + header_bytes n_restarts in
  if body > stop then err "truncated restart table";
  { data; off = pos; body; stop; count; interval; fixed; n_restarts }

let restart_offset t r =
  if r < 0 || r >= t.n_restarts then err "restart index %d out of range" r;
  u16 t.data (t.off + 7 + (2 * r))

(* {1 Decoding} *)

type cursor = {
  run : t;
  mutable idx : int;     (* index of the next value *)
  mutable pos : int;     (* absolute offset of the next entry *)
  mutable prev : P.t;    (* last value materialized *)
}

let cursor t =
  let pos = if t.count = 0 then t.stop else t.body + restart_offset t 0 in
  { run = t; idx = 0; pos; prev = P.empty }

let next c =
  let t = c.run in
  if c.idx >= t.count then None
  else begin
    let need n =
      if c.pos + n > t.stop then err "entry %d runs past the end of the run" c.idx
    in
    let at_restart = c.idx mod t.interval = 0 in
    let shared =
      if at_restart then 0
      else begin
        need 1;
        let s = u8 t.data c.pos in
        c.pos <- c.pos + 1;
        s
      end
    in
    let len =
      match t.fixed with
      | Some l -> l
      | None ->
          need 1;
          let l = u8 t.data c.pos in
          c.pos <- c.pos + 1;
          l
    in
    if len > P.max_bits then err "entry %d: length %d beyond max_bits" c.idx len;
    if shared > len then err "entry %d: shared prefix %d > length %d" c.idx shared len;
    if (not at_restart) && shared > P.length c.prev then
      err "entry %d: shared prefix %d longer than predecessor" c.idx shared;
    let nbytes = key_bytes (len - shared) in
    need nbytes;
    let z =
      P.append_bytes (P.take c.prev shared) ~bytes:t.data ~pos:c.pos
        ~nbits:(len - shared)
    in
    c.pos <- c.pos + nbytes;
    c.prev <- z;
    c.idx <- c.idx + 1;
    Some z
  end

let decode t =
  let c = cursor t in
  Array.init t.count (fun _ ->
      match next c with Some z -> z | None -> assert false)

let raw_bytes t =
  let variable = t.fixed = None in
  let c = cursor t in
  let total = ref 0 in
  let rec go () =
    match next c with
    | None -> !total
    | Some z ->
        total := !total + (if variable then 1 else 0) + key_bytes (P.length z);
        go ()
  in
  go ()

let validate t =
  (* Walk every entry; on top of the per-entry checks [next] performs,
     confirm each restart offset lands exactly where the walk does and
     that the body is consumed exactly. *)
  match
    let c = cursor t in
    let rec go () =
      if c.idx < t.count then begin
        if c.idx mod t.interval = 0 then begin
          let expect = t.body + restart_offset t (c.idx / t.interval) in
          if c.pos <> expect then
            err "restart %d points at %d, entries end at %d" (c.idx / t.interval)
              (expect - t.body) (c.pos - t.body)
        end;
        ignore (next c);
        go ()
      end
    in
    go ();
    if c.pos <> t.stop then
      err "%d trailing byte(s) after the last entry" (t.stop - c.pos)
  with
  | () -> Ok ()
  | exception Invalid_argument msg -> Error msg
