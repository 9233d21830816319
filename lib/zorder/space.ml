type t = { dims : int; depth : int }

let max_total_bits = 61

let make ~dims ~depth =
  if dims < 1 then invalid_arg "Space.make: dims must be >= 1";
  if depth < 0 then invalid_arg "Space.make: depth must be >= 0";
  (* [depth > max / dims] is [dims * depth > max] without the overflow. *)
  if depth > max_total_bits / dims then
    invalid_arg
      (Printf.sprintf "Space.make: %d x %d is wider than %d total bits" dims depth
         max_total_bits);
  { dims; depth }

let dims t = t.dims
let depth t = t.depth

let side t = 1 lsl t.depth

let total_bits t = t.dims * t.depth

let axis_of_level t level = level mod t.dims

let cells t = Float.pow 2.0 (float_of_int (t.dims * t.depth))

let valid_coord t c = c >= 0 && c < side t

let pp fmt t = Format.fprintf fmt "%dd grid of 2^%d per axis" t.dims t.depth
