(* Packed z values: [len] bits, bit i stored MSB-first at bit (62 - i) of
   [w0] for i < 63 and at bit (125 - i) of [w1] for 63 <= i < 126.
   Invariant: every bit at position >= len is zero, so whole-word
   arithmetic never sees garbage. *)

type t = { len : int; w0 : int; w1 : int }

let word_bits = 63
let max_bits = 2 * word_bits

let empty = { len = 0; w0 = 0; w1 = 0 }

let length t = t.len

(* Top-[n] bits of a 63-bit word, 0 <= n <= 63.  [lsl] by 63 is
   unspecified in OCaml, hence the guard. *)
let mask_first n = if n = 0 then 0 else -1 lsl (word_bits - n)

(* Bit [i] of the value, as 0/1. *)
let bit t i =
  if i < word_bits then (t.w0 lsr (62 - i)) land 1 else (t.w1 lsr (125 - i)) land 1

(* Index of the highest set bit (0-based from the LSB); [x <> 0].  Works
   on words with the sign bit set because [lsr] is a logical shift. *)
let floor_log2 x =
  let n = ref 0 and x = ref x in
  if !x lsr 32 <> 0 then begin n := !n + 32; x := !x lsr 32 end;
  if !x lsr 16 <> 0 then begin n := !n + 16; x := !x lsr 16 end;
  if !x lsr 8 <> 0 then begin n := !n + 8; x := !x lsr 8 end;
  if !x lsr 4 <> 0 then begin n := !n + 4; x := !x lsr 4 end;
  if !x lsr 2 <> 0 then begin n := !n + 2; x := !x lsr 2 end;
  if !x lsr 1 <> 0 then incr n;
  !n

let common_prefix_len a b =
  let m = if a.len <= b.len then a.len else b.len in
  let d0 = a.w0 lxor b.w0 in
  if d0 <> 0 then min m (62 - floor_log2 d0)
  else
    let d1 = a.w1 lxor b.w1 in
    if d1 <> 0 then min m (word_bits + 62 - floor_log2 d1) else m

(* Bytewise packing: storage byte k holds string bits [8k .. 8k+7]
   MSB-first, so each byte lands with one shift.  Byte 7 straddles the
   w0/w1 boundary (bits 56..62 end w0, bit 63 starts w1); byte 15's two
   low bits would be string bits 126/127, which cannot exist (len <= 126)
   and read as zero by the Bitstring invariant. *)
let first_word b =
  let w0 = ref 0 in
  for k = 0 to min 7 (((Bitstring.length b + 7) / 8) - 1) do
    let v = Bitstring.byte b k in
    w0 := !w0 lor (if k < 7 then v lsl (55 - (8 * k)) else v lsr 1)
  done;
  !w0

let of_bitstring b =
  let len = Bitstring.length b in
  if len > max_bits then None
  else begin
    let w1 = ref 0 in
    for k = 7 to ((len + 7) / 8) - 1 do
      let v = Bitstring.byte b k in
      if k = 7 then w1 := (v land 1) lsl 62
      else if k < 15 then w1 := !w1 lor (v lsl (118 - (8 * k)))
      else w1 := !w1 lor (v lsr 2)
    done;
    Some { len; w0 = first_word b; w1 = !w1 }
  end

let to_bitstring t = Bitstring.init t.len (fun i -> bit t i = 1)

let fits_space space = Space.total_bits space <= max_bits

let check_coords space coords =
  let k = Space.dims space in
  if Array.length coords <> k then
    invalid_arg "Zpacked.shuffle: wrong number of coordinates";
  Array.iter
    (fun c ->
      if not (Space.valid_coord space c) then
        invalid_arg "Zpacked.shuffle: coordinate out of range")
    coords

let shuffle space coords =
  check_coords space coords;
  if not (fits_space space) then invalid_arg "Zpacked.shuffle: space too deep";
  let k = Space.dims space and d = Space.depth space in
  let total = k * d in
  let w0 = ref 0 and w1 = ref 0 in
  for j = 0 to total - 1 do
    let axis = j mod k and bit = j / k in
    (* bit 0 is the most significant of the d coordinate bits *)
    let b = (coords.(axis) lsr (d - 1 - bit)) land 1 in
    if j < word_bits then w0 := !w0 lor (b lsl (62 - j))
    else w1 := !w1 lor (b lsl (125 - j))
  done;
  { len = total; w0 = !w0; w1 = !w1 }

let unshuffle space t =
  let k = Space.dims space in
  if t.len > Space.total_bits space then
    invalid_arg "Zpacked.unshuffle: z value too long for space";
  let prefixes = Array.make k (0, 0) in
  for j = 0 to t.len - 1 do
    let axis = j mod k in
    let v, len = prefixes.(axis) in
    prefixes.(axis) <- ((v lsl 1) lor bit t j, len + 1)
  done;
  prefixes

let take t n =
  if n < 0 || n > t.len then invalid_arg "Zpacked.take";
  {
    len = n;
    w0 = t.w0 land mask_first (min n word_bits);
    w1 = t.w1 land mask_first (max 0 (n - word_bits));
  }

let suffix_bytes t ~pos =
  if pos < 0 || pos > t.len then invalid_arg "Zpacked.suffix_bytes";
  let nbits = t.len - pos in
  let out = Bytes.make ((nbits + 7) / 8) '\000' in
  for i = 0 to nbits - 1 do
    if bit t (pos + i) = 1 then
      Bytes.set_uint8 out (i / 8)
        (Bytes.get_uint8 out (i / 8) lor (0x80 lsr (i mod 8)))
  done;
  Bytes.unsafe_to_string out

let append_bytes t ~bytes ~pos ~nbits =
  if nbits < 0 || t.len + nbits > max_bits then invalid_arg "Zpacked.append_bytes";
  if pos < 0 || pos + ((nbits + 7) / 8) > String.length bytes then
    invalid_arg "Zpacked.append_bytes: bytes too short";
  let w0 = ref t.w0 and w1 = ref t.w1 in
  for i = 0 to nbits - 1 do
    let b = (Char.code bytes.[pos + (i / 8)] lsr (7 - (i mod 8))) land 1 in
    if b = 1 then begin
      let j = t.len + i in
      if j < word_bits then w0 := !w0 lor (1 lsl (62 - j))
      else w1 := !w1 lor (1 lsl (125 - j))
    end
  done;
  { len = t.len + nbits; w0 = !w0; w1 = !w1 }
