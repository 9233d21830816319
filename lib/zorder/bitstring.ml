(* Bits are stored MSB-first: bit [i] lives in byte [i / 8] at bit
   position [7 - i mod 8].  Invariant: every bit of [data] at index
   [>= len] is zero, so equality and hashing can be structural. *)

type t = { data : Bytes.t; len : int }

let empty = { data = Bytes.empty; len = 0 }

let bytes_needed len = (len + 7) / 8

let length t = t.len

let is_empty t = t.len = 0

let check_index t i =
  if i < 0 || i >= t.len then
    invalid_arg (Printf.sprintf "Bitstring: index %d out of bounds (len %d)" i t.len)

let unsafe_get data i =
  Char.code (Bytes.get data (i lsr 3)) land (0x80 lsr (i land 7)) <> 0

let get t i =
  check_index t i;
  unsafe_get t.data i

let unsafe_set_bit data i b =
  let byte = i lsr 3 and mask = 0x80 lsr (i land 7) in
  let old = Char.code (Bytes.get data byte) in
  let v = if b then old lor mask else old land lnot mask in
  Bytes.set data byte (Char.chr v)

let init n f =
  if n < 0 then invalid_arg "Bitstring.init: negative length";
  let data = Bytes.make (bytes_needed n) '\000' in
  for i = 0 to n - 1 do
    if f i then unsafe_set_bit data i true
  done;
  { data; len = n }

let of_bools bits =
  let arr = Array.of_list bits in
  init (Array.length arr) (Array.get arr)

let of_string s =
  init (String.length s) (fun i ->
      match s.[i] with
      | '0' -> false
      | '1' -> true
      | c -> invalid_arg (Printf.sprintf "Bitstring.of_string: bad char %c" c))

let of_int v ~width =
  if v < 0 then invalid_arg "Bitstring.of_int: negative value";
  if width < 0 || width > 62 then invalid_arg "Bitstring.of_int: bad width";
  if width < 62 && v lsr width <> 0 then
    invalid_arg "Bitstring.of_int: value does not fit width";
  init width (fun i -> (v lsr (width - 1 - i)) land 1 = 1)

let to_string t = String.init t.len (fun i -> if get t i then '1' else '0')

let to_bools t = List.init t.len (get t)

let byte t k =
  if k < 0 || k >= bytes_needed t.len then invalid_arg "Bitstring.byte";
  Char.code (Bytes.get t.data k)

let to_int t =
  if t.len > 62 then invalid_arg "Bitstring.to_int: too long";
  let rec go acc i = if i = t.len then acc else go ((acc lsl 1) lor (if unsafe_get t.data i then 1 else 0)) (i + 1) in
  go 0 0

let copy_resized t new_len =
  let data = Bytes.make (bytes_needed new_len) '\000' in
  Bytes.blit t.data 0 data 0 (min (Bytes.length t.data) (Bytes.length data));
  data

let append_bit t b =
  let len = t.len + 1 in
  let data = copy_resized t len in
  if b then unsafe_set_bit data t.len true;
  { data; len }

let concat a b =
  if b.len = 0 then a
  else if a.len = 0 then b
  else begin
    let len = a.len + b.len in
    let data = copy_resized a len in
    for i = 0 to b.len - 1 do
      if unsafe_get b.data i then unsafe_set_bit data (a.len + i) true
    done;
    { data; len }
  end

(* The first [n] bits of [src] as a fresh string; the bits past [n] in
   the last byte are zeroed to restore the invariant. *)
let prefix_of src n =
  let data = Bytes.sub src 0 (bytes_needed n) in
  if n land 7 <> 0 then begin
    let last = Bytes.length data - 1 in
    let keep = 0xff lsl (8 - (n land 7)) land 0xff in
    Bytes.set data last (Char.chr (Char.code (Bytes.get data last) land keep))
  end;
  { data; len = n }

let of_bytes buf n =
  if n < 0 || n > 8 * Bytes.length buf then invalid_arg "Bitstring.of_bytes";
  prefix_of buf n

let take t n =
  if n < 0 || n > t.len then invalid_arg "Bitstring.take";
  if n = t.len then t else prefix_of t.data n

let drop t n =
  if n < 0 || n > t.len then invalid_arg "Bitstring.drop";
  init (t.len - n) (fun i -> unsafe_get t.data (n + i))

let pad_to t n b =
  if n < t.len then invalid_arg "Bitstring.pad_to: target shorter than input";
  if n = t.len then t
  else if not b then { data = copy_resized t n; len = n }
  else init n (fun i -> if i < t.len then unsafe_get t.data i else true)

let set t i b =
  check_index t i;
  let data = Bytes.copy t.data in
  unsafe_set_bit data i b;
  { data; len = t.len }

let compare a b =
  let min_len = min a.len b.len in
  (* Compare whole bytes first; the zero-padding invariant makes this safe
     only for bytes fully inside both strings, so stop before the last
     partial byte of the shorter string. *)
  let full = min_len / 8 in
  let rec bytes i =
    if i = full then bits (full * 8)
    else
      let c = Char.compare (Bytes.get a.data i) (Bytes.get b.data i) in
      if c <> 0 then c else bytes (i + 1)
  and bits i =
    if i >= min_len then Stdlib.compare a.len b.len
    else
      let ba = unsafe_get a.data i and bb = unsafe_get b.data i in
      if ba = bb then bits (i + 1) else if ba then 1 else -1
  in
  bytes 0

let equal a b = a.len = b.len && Bytes.equal a.data b.data

let is_prefix p t =
  p.len <= t.len
  &&
  let rec go i = i = p.len || (unsafe_get p.data i = unsafe_get t.data i && go (i + 1)) in
  go 0

let common_prefix_len a b =
  let min_len = min a.len b.len in
  let rec go i =
    if i = min_len || unsafe_get a.data i <> unsafe_get b.data i then i else go (i + 1)
  in
  go 0

let shortest_separator ~lo ~hi =
  if compare lo hi >= 0 then invalid_arg "Bitstring.shortest_separator: lo >= hi";
  (* If lo is a proper prefix of hi, any proper extension of lo that is a
     prefix of hi works; the shortest is lo plus hi's next bit.  Otherwise
     they differ at position c with lo=0, hi=1 there (since lo < hi), and
     hi's prefix of length c+1 separates. *)
  let c = common_prefix_len lo hi in
  take hi (c + 1)

let successor t =
  let rec go i =
    if i < 0 then None
    else if get t i then go (i - 1)
    else
      (* Set bit i, clear everything after. *)
      Some (init t.len (fun j -> if j < i then unsafe_get t.data j else j = i))
  in
  go (t.len - 1)

let hash t = Hashtbl.hash (t.len, Bytes.to_string t.data)

let pp fmt t =
  if t.len = 0 then Format.pp_print_string fmt "<>"
  else Format.pp_print_string fmt (to_string t)
