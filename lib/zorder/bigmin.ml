let check_box space ~lo ~hi =
  let k = Space.dims space in
  if Array.length lo <> k || Array.length hi <> k then invalid_arg "Bigmin: arity";
  for i = 0 to k - 1 do
    if lo.(i) > hi.(i) then invalid_arg "Bigmin: lo > hi";
    if not (Space.valid_coord space lo.(i) && Space.valid_coord space hi.(i)) then
      invalid_arg "Bigmin: box out of grid"
  done

let zcode space coords = Interleave.rank space coords

let in_box space ~lo ~hi z =
  check_box space ~lo ~hi;
  let pt = Interleave.point_of_rank space z in
  let rec ok i =
    i = Array.length pt || (lo.(i) <= pt.(i) && pt.(i) <= hi.(i) && ok (i + 1))
  in
  ok 0

(* Bit position [pos] counts from the MSB of the [total]-bit z code:
   pos 0 is the most significant interleaved bit.  The machine bit index
   is [total - 1 - pos]. *)
let bit_at total v pos = (v lsr (total - 1 - pos)) land 1

(* [load_pattern total k v pos first rest]: in the z code [v], set the bit
   at interleaved position [pos] to [first], and every lower-significance
   bit belonging to the same dimension (positions pos+k, pos+2k, ...) to
   [rest].  This is the "load 10...0 / 01...1" step of the algorithm. *)
let load_pattern total k v pos first rest =
  let v = ref v in
  let set p b =
    let idx = total - 1 - p in
    if b = 1 then v := !v lor (1 lsl idx) else v := !v land lnot (1 lsl idx)
  in
  set pos first;
  let p = ref (pos + k) in
  while !p < total do
    set !p rest;
    p := !p + k
  done;
  !v

let bigmin space ~lo ~hi z =
  check_box space ~lo ~hi;
  let k = Space.dims space in
  let total = Space.total_bits space in
  let zmin = ref (zcode space lo) and zmax = ref (zcode space hi) in
  let best = ref None in
  let exception Done of int option in
  try
    for pos = 0 to total - 1 do
      let bz = bit_at total z pos
      and bmin = bit_at total !zmin pos
      and bmax = bit_at total !zmax pos in
      match (bz, bmin, bmax) with
      | 0, 0, 0 -> ()
      | 0, 0, 1 ->
          (* The box spans both halves in this bit; remember the start of
             the upper half as a candidate jump, continue in the lower. *)
          best := Some (load_pattern total k !zmin pos 1 0);
          zmax := load_pattern total k !zmax pos 0 1
      | 0, 1, 1 ->
          (* z is below the box in this bit: the box minimum is the answer. *)
          raise (Done (Some !zmin))
      | 1, 0, 0 ->
          (* z is above the box in this bit: fall back to saved candidate. *)
          raise (Done !best)
      | 1, 0, 1 -> zmin := load_pattern total k !zmin pos 1 0
      | 1, 1, 1 -> ()
      | _, 1, 0 -> assert false (* zmin bit > zmax bit: cannot happen *)
      | _ -> assert false
    done;
    (* All bits agreed: z itself lies in the box. *)
    Some z
  with Done r -> r

let litmax space ~lo ~hi z =
  check_box space ~lo ~hi;
  let k = Space.dims space in
  let total = Space.total_bits space in
  let zmin = ref (zcode space lo) and zmax = ref (zcode space hi) in
  let best = ref None in
  let exception Done of int option in
  try
    for pos = 0 to total - 1 do
      let bz = bit_at total z pos
      and bmin = bit_at total !zmin pos
      and bmax = bit_at total !zmax pos in
      match (bz, bmin, bmax) with
      | 1, 1, 1 -> ()
      | 1, 0, 1 ->
          best := Some (load_pattern total k !zmax pos 0 1);
          zmin := load_pattern total k !zmin pos 1 0
      | 1, 0, 0 -> raise (Done (Some !zmax))
      | 0, 1, 1 -> raise (Done !best)
      | 0, 0, 1 -> zmax := load_pattern total k !zmax pos 0 1
      | 0, 0, 0 -> ()
      | _, 1, 0 -> assert false
      | _ -> assert false
    done;
    Some z
  with Done r -> r
