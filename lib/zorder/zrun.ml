(* Delta-encoded runs of fixed-width int z values: LevelDB-style front
   coding adapted to bit-granular keys.  See zrun.mli for the format. *)

type t = {
  data : string;
  off : int;            (* absolute offset of the header in [data] *)
  body : int;           (* absolute offset of the first entry *)
  stop : int;           (* absolute offset one past the last entry *)
  count : int;
  interval : int;
  bits : int;           (* every value's width *)
  n_restarts : int;
}

let flag_fixed = 0x01

let restart_interval = 16

let header_bytes = 7

let table_bytes n_restarts = header_bytes + (2 * n_restarts)

let count t = t.count

let byte_length t = t.stop - t.off

let to_string t = String.sub t.data t.off (t.stop - t.off)

let err fmt = Printf.ksprintf (fun s -> invalid_arg ("Zrun: " ^ s)) fmt

let key_bytes bits = (bits + 7) / 8

(* Index of the highest set bit (0-based from the LSB); [x > 0]. *)
let floor_log2 x =
  let n = ref 0 and x = ref x in
  if !x lsr 32 <> 0 then begin n := !n + 32; x := !x lsr 32 end;
  if !x lsr 16 <> 0 then begin n := !n + 16; x := !x lsr 16 end;
  if !x lsr 8 <> 0 then begin n := !n + 8; x := !x lsr 8 end;
  if !x lsr 4 <> 0 then begin n := !n + 4; x := !x lsr 4 end;
  if !x lsr 2 <> 0 then begin n := !n + 2; x := !x lsr 2 end;
  if !x lsr 1 <> 0 then incr n;
  !n

(* Length of the common prefix of two [bits]-wide values. *)
let shared_bits ~bits a b =
  let d = a lxor b in
  if d = 0 then bits else bits - 1 - floor_log2 d

let entry_bytes ~bits ~index ~prev z =
  if index mod restart_interval = 0 then 2 + key_bytes bits
  else 1 + key_bytes (bits - shared_bits ~bits prev z)

(* Byte [k] of the [nbits]-bit suffix [v] stored MSB-first, the last
   byte zero-padded.  Built by shifting each byte into place, since a
   61-bit suffix spans 8 bytes, more than an int holds. *)
let suffix_byte v ~nbits k =
  let sh = nbits - (8 * (k + 1)) in
  (if sh >= 0 then v lsr sh else v lsl (-sh)) land 0xFF

(* {1 Encoding} *)

let encode ~bits zs =
  let n = Array.length zs in
  if n > 0xFFFF then err "run of %d values (max 65535)" n;
  if bits < 0 || bits > Space.max_total_bits then err "value width %d out of range" bits;
  Array.iter
    (fun z -> if z < 0 || z lsr bits <> 0 then err "value %d wider than %d bits" z bits)
    zs;
  let n_restarts = if n = 0 then 0 else ((n - 1) / restart_interval) + 1 in
  let body = Buffer.create 256 in
  let restarts = Array.make n_restarts 0 in
  for i = 0 to n - 1 do
    let z = zs.(i) in
    let shared =
      if i mod restart_interval = 0 then begin
        restarts.(i / restart_interval) <- Buffer.length body;
        0
      end
      else begin
        let s = shared_bits ~bits zs.(i - 1) z in
        Buffer.add_uint8 body s;
        s
      end
    in
    let nbits = bits - shared in
    for k = 0 to key_bytes nbits - 1 do
      Buffer.add_uint8 body (suffix_byte z ~nbits k)
    done
  done;
  let out = Buffer.create (table_bytes n_restarts + Buffer.length body) in
  Buffer.add_uint8 out flag_fixed;
  Buffer.add_uint8 out bits;
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
    body = table_bytes n_restarts;
    stop = String.length data;
    count = n;
    interval = restart_interval;
    bits;
    n_restarts;
  }

(* {1 Parsing} *)

let u8 s i = Char.code s.[i]

let u16 s i = (u8 s i lsl 8) lor u8 s (i + 1)

let of_string ?(pos = 0) ?len data =
  let stop =
    match len with Some l -> pos + l | None -> String.length data
  in
  if pos < 0 || stop > String.length data || stop - pos < header_bytes then
    err "truncated run header";
  let flags = u8 data pos in
  let bits = u8 data (pos + 1) in
  let interval = u8 data (pos + 2) in
  let count = u16 data (pos + 3) in
  let n_restarts = u16 data (pos + 5) in
  if flags <> flag_fixed then err "unsupported run flags 0x%02x" flags;
  if bits > Space.max_total_bits then
    err "value width %d beyond %d bits" bits Space.max_total_bits;
  if interval < 1 then err "zero restart interval";
  let expected_restarts = if count = 0 then 0 else ((count - 1) / interval) + 1 in
  if n_restarts <> expected_restarts then
    err "restart count %d inconsistent with %d values at interval %d" n_restarts
      count interval;
  let body = pos + table_bytes n_restarts in
  if body > stop then err "truncated restart table";
  { data; off = pos; body; stop; count; interval; bits; n_restarts }

let restart_offset t r = u16 t.data (t.off + header_bytes + (2 * r))

(* {1 Decoding} *)

(* Walk every entry in order, calling [at_entry i pos] before entry [i]
   is read from absolute offset [pos]; returns the values and the offset
   one past the last entry. *)
let walk t at_entry =
  let out = Array.make t.count 0 in
  let pos = ref (if t.count = 0 then t.stop else t.body + restart_offset t 0) in
  let prev = ref 0 in
  for i = 0 to t.count - 1 do
    at_entry i !pos;
    let need n =
      if !pos + n > t.stop then err "entry %d runs past the end of the run" i
    in
    let shared =
      if i mod t.interval = 0 then 0
      else begin
        need 1;
        let s = u8 t.data !pos in
        incr pos;
        s
      end
    in
    if shared > t.bits then err "entry %d: shared prefix %d > width %d" i shared t.bits;
    let nbits = t.bits - shared in
    let nbytes = key_bytes nbits in
    need nbytes;
    let suffix = ref 0 in
    for k = 0 to nbytes - 1 do
      let sh = nbits - (8 * (k + 1)) in
      let b = u8 t.data (!pos + k) in
      suffix := !suffix lor (if sh >= 0 then b lsl sh else b lsr (-sh))
    done;
    pos := !pos + nbytes;
    let z = ((!prev lsr nbits) lsl nbits) lor !suffix in
    out.(i) <- z;
    prev := z
  done;
  (out, !pos)

let decode t = fst (walk t (fun _ _ -> ()))

let validate t =
  (* On top of the per-entry checks, confirm each restart offset lands
     exactly where the walk does and that the body is consumed exactly. *)
  match
    let _, stop =
      walk t (fun i pos ->
          if i mod t.interval = 0 then begin
            let r = i / t.interval in
            let expect = t.body + restart_offset t r in
            if pos <> expect then
              err "restart %d points at %d, entries end at %d" r (expect - t.body)
                (pos - t.body)
          end)
    in
    if stop <> t.stop then err "%d trailing byte(s) after the last entry" (t.stop - stop)
  with
  | () -> Ok ()
  | exception Invalid_argument msg -> Error msg
