(* The bits are held right-aligned in one int: bit [i] of the string is
   bit [len - 1 - i] of [bits].  Invariant: [0 <= bits < 2^len] and
   [len <= Space.max_total_bits], so every string has exactly one
   representation and equality and hashing can be structural. *)

type t = { bits : int; len : int }

let empty = { bits = 0; len = 0 }

let check_len name n =
  if n < 0 || n > Space.max_total_bits then
    invalid_arg
      (Printf.sprintf "Bitstring.%s: length %d outside [0, %d]" name n
         Space.max_total_bits)

let length t = t.len

let is_empty t = t.len = 0

let get t i =
  if i < 0 || i >= t.len then
    invalid_arg (Printf.sprintf "Bitstring: index %d out of bounds (len %d)" i t.len);
  (t.bits lsr (t.len - 1 - i)) land 1 = 1

let init n f =
  check_len "init" n;
  let bits = ref 0 in
  for i = 0 to n - 1 do
    bits := (!bits lsl 1) lor Bool.to_int (f i)
  done;
  { bits = !bits; len = n }

let of_string s =
  init (String.length s) (fun i ->
      match s.[i] with
      | '0' -> false
      | '1' -> true
      | c -> invalid_arg (Printf.sprintf "Bitstring.of_string: bad char %c" c))

let of_int v ~width =
  check_len "of_int" width;
  if v < 0 || v lsr width <> 0 then
    invalid_arg "Bitstring.of_int: value does not fit width";
  { bits = v; len = width }

let to_string t = String.init t.len (fun i -> if get t i then '1' else '0')

let to_int t = t.bits

let append_bit t b =
  check_len "append_bit" (t.len + 1);
  { bits = (t.bits lsl 1) lor Bool.to_int b; len = t.len + 1 }

let take t n =
  if n < 0 || n > t.len then invalid_arg "Bitstring.take";
  { bits = t.bits lsr (t.len - n); len = n }

let pad_to t n b =
  if n < t.len then invalid_arg "Bitstring.pad_to: target shorter than input";
  check_len "pad_to" n;
  let k = n - t.len in
  { bits = (t.bits lsl k) lor (if b then (1 lsl k) - 1 else 0); len = n }

(* Left-aligned to [Space.max_total_bits], the int order of two strings
   is their order up to trailing zeros; a proper prefix padded with
   zeros ties with its extension, and the length breaks the tie. *)
let compare a b =
  let m = Space.max_total_bits in
  let c = Int.compare (a.bits lsl (m - a.len)) (b.bits lsl (m - b.len)) in
  if c <> 0 then c else Int.compare a.len b.len

let equal a b = a.len = b.len && a.bits = b.bits

let is_prefix p t = p.len <= t.len && t.bits lsr (t.len - p.len) = p.bits

let common_prefix_len a b =
  let n = min a.len b.len in
  (* The first [n] bits of each, xored: the common prefix is [n] minus
     the bit length of the difference. *)
  let rec bit_length x k = if x = 0 then k else bit_length (x lsr 1) (k + 1) in
  n - bit_length ((a.bits lsr (a.len - n)) lxor (b.bits lsr (b.len - n))) 0

let shortest_separator ~lo ~hi =
  if compare lo hi >= 0 then invalid_arg "Bitstring.shortest_separator: lo >= hi";
  (* If lo is a proper prefix of hi, any proper extension of lo that is a
     prefix of hi works; the shortest is lo plus hi's next bit.  Otherwise
     they differ at position c with lo=0, hi=1 there (since lo < hi), and
     hi's prefix of length c+1 separates. *)
  let c = common_prefix_len lo hi in
  take hi (c + 1)

let pp fmt t =
  if t.len = 0 then Format.pp_print_string fmt "<>"
  else Format.pp_print_string fmt (to_string t)
