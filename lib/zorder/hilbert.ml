let check space = if Space.dims space <> 2 then invalid_arg "Hilbert: 2d only"

(* Classic bitwise conversion (cf. Hamilton's compact Hilbert indices for
   the square case): walk the quadrant bits from the top, rotating the
   frame as the curve recurses. *)
let rank space p =
  check space;
  let side = Space.side space in
  if not (Space.valid_coord space p.(0) && Space.valid_coord space p.(1)) then
    invalid_arg "Hilbert.rank: point out of grid";
  let x = ref p.(0) and y = ref p.(1) in
  let d = ref 0 in
  let s = ref (side / 2) in
  while !s > 0 do
    let rx = if !x land !s > 0 then 1 else 0 in
    let ry = if !y land !s > 0 then 1 else 0 in
    d := !d + (!s * !s * ((3 * rx) lxor ry));
    (* Rotate the frame so the sub-curve is in canonical position; the
       reflection is about the full grid (side - 1), as in the classic
       xy2d formulation. *)
    if ry = 0 then begin
      if rx = 1 then begin
        x := side - 1 - !x;
        y := side - 1 - !y
      end;
      let tmp = !x in
      x := !y;
      y := tmp
    end;
    s := !s / 2
  done;
  !d

let point_of_rank space r =
  check space;
  let side = Space.side space in
  if r < 0 || r lsr Space.total_bits space <> 0 then
    invalid_arg "Hilbert.point_of_rank: rank out of range";
  let x = ref 0 and y = ref 0 in
  let t = ref r in
  let s = ref 1 in
  while !s < side do
    let rx = 1 land (!t / 2) in
    let ry = 1 land (!t lxor rx) in
    if ry = 0 then begin
      if rx = 1 then begin
        x := !s - 1 - !x;
        y := !s - 1 - !y
      end;
      let tmp = !x in
      x := !y;
      y := tmp
    end;
    x := !x + (!s * rx);
    y := !y + (!s * ry);
    t := !t / 4;
    s := !s * 2
  done;
  [| !x; !y |]

let traverse space =
  check space;
  if Space.total_bits space > 24 then invalid_arg "Hilbert.traverse: space too large";
  Seq.init (1 lsl Space.total_bits space) (point_of_rank space)
