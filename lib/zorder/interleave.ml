let check_coords space coords =
  let k = Space.dims space in
  if Array.length coords <> k then
    invalid_arg "Interleave: wrong number of coordinates";
  let side = Space.side space in
  for axis = 0 to k - 1 do
    let c = coords.(axis) in
    if c < 0 || c >= side then
      invalid_arg (Printf.sprintf "Interleave: coordinate %d out of range" c)
  done

let shuffle space coords =
  check_coords space coords;
  let k = Space.dims space and d = Space.depth space in
  Bitstring.init (k * d) (fun j ->
      let axis = j mod k and bit = j / k in
      (* bit 0 is the most significant of the d coordinate bits *)
      (coords.(axis) lsr (d - 1 - bit)) land 1 = 1)

let shuffle_prefixes space prefixes =
  let k = Space.dims space and d = Space.depth space in
  if Array.length prefixes <> k then
    invalid_arg "Interleave.shuffle_prefixes: wrong arity";
  let lens = Array.map snd prefixes in
  Array.iteri
    (fun i (v, len) ->
      if len < 0 || len > d then
        invalid_arg "Interleave.shuffle_prefixes: bad prefix length";
      if v < 0 || (len < 62 && v lsr len <> 0) then
        invalid_arg "Interleave.shuffle_prefixes: prefix value does not fit";
      if i > 0 && len > lens.(i - 1) then
        invalid_arg "Interleave.shuffle_prefixes: lengths must be non-increasing")
    prefixes;
  if lens.(0) - lens.(k - 1) > 1 then
    invalid_arg "Interleave.shuffle_prefixes: lengths differ by more than 1";
  let total = Array.fold_left ( + ) 0 lens in
  Bitstring.init total (fun j ->
      let axis = j mod k and bit = j / k in
      let v, len = prefixes.(axis) in
      (v lsr (len - 1 - bit)) land 1 = 1)

let unshuffle space z =
  let k = Space.dims space in
  let total = Bitstring.length z in
  if total > Space.total_bits space then
    invalid_arg "Interleave.unshuffle: z value too long for space";
  let prefixes = Array.make k (0, 0) in
  for j = 0 to total - 1 do
    let axis = j mod k in
    let v, len = prefixes.(axis) in
    prefixes.(axis) <- ((v lsl 1) lor (if Bitstring.get z j then 1 else 0), len + 1)
  done;
  prefixes

(* Bits accumulate right-aligned (bit j of the z value at bit
   [total - 1 - j]), then shift up to the top of the word; nested loops
   keep [mod] and [/] out of the per-bit work. *)
let word space coords =
  let k = Space.dims space and d = Space.depth space in
  if k * d > 63 then invalid_arg "Interleave.word: space wider than 63 bits";
  check_coords space coords;
  let v = ref 0 in
  for bit = d - 1 downto 0 do
    for axis = 0 to k - 1 do
      v := (!v lsl 1) lor ((coords.(axis) lsr bit) land 1)
    done
  done;
  !v lsl (63 - (k * d))

let rank space coords =
  let total = Space.total_bits space in
  if total > 62 then invalid_arg "Interleave.rank: space too deep";
  word space coords lsr (63 - total)

let point_of_rank space r =
  let k = Space.dims space and d = Space.depth space in
  if Space.total_bits space > 62 then
    invalid_arg "Interleave.point_of_rank: space too deep";
  if r < 0 || (k * d < 62 && r lsr (k * d) <> 0) then
    invalid_arg "Interleave.point_of_rank: rank out of range";
  let z = Bitstring.of_int r ~width:(k * d) in
  Array.map fst (unshuffle space z)
