module B = Sqp_zorder.Bitstring

type t = {
  prefix_bits : int;
  mass : float array;       (* per-bucket row mass; sums to [rows] *)
  level_sum : float array;  (* per-bucket sum of entry levels, mass-weighted *)
  rows : int;
  total_level : float;
}

let prefix_bits t = t.prefix_bits
let rows t = t.rows
let avg_level t = if t.rows = 0 then 0.0 else t.total_level /. float_of_int t.rows
let bucket_count t = Array.length t.mass

let check_bucket t i =
  if i < 0 || i >= Array.length t.mass then
    invalid_arg "Histogram: bucket index out of range"

let bucket_mass t i =
  check_bucket t i;
  t.mass.(i)

let bucket_avg_level t i =
  check_bucket t i;
  if t.mass.(i) <= 0.0 then avg_level t else t.level_sum.(i) /. t.mass.(i)

(* The bucket range [lo, hi) (as bucket indices) covered by a z value:
   a value of length >= prefix_bits lands in exactly one bucket; a
   shorter value (a coarse element) covers the 2^(prefix_bits - len)
   buckets sharing its prefix. *)
let bucket_range prefix_bits z =
  let len = B.length z in
  if len >= prefix_bits then begin
    let i = B.to_int (B.take z prefix_bits) in
    (i, i + 1)
  end
  else begin
    let base = if len = 0 then 0 else B.to_int z in
    let span = 1 lsl (prefix_bits - len) in
    (base * span, (base * span) + span)
  end

let build ?prefix_bits ~space zs =
  let total = Sqp_zorder.Space.total_bits space in
  let prefix_bits =
    match prefix_bits with
    | None -> min 8 total
    | Some b ->
        if b < 0 then invalid_arg "Histogram.build: prefix_bits < 0";
        min b total
  in
  let n = 1 lsl prefix_bits in
  let mass = Array.make n 0.0 and level_sum = Array.make n 0.0 in
  let rows = ref 0 and total_level = ref 0.0 in
  Seq.iter
    (fun z ->
      incr rows;
      let level = float_of_int (B.length z) in
      total_level := !total_level +. level;
      let lo, hi = bucket_range prefix_bits z in
      let share = 1.0 /. float_of_int (hi - lo) in
      for i = lo to hi - 1 do
        mass.(i) <- mass.(i) +. share;
        level_sum.(i) <- level_sum.(i) +. (share *. level)
      done)
    zs;
  { prefix_bits; mass; level_sum; rows = !rows; total_level = !total_level }

let fold_nonempty f t init =
  let acc = ref init in
  Array.iteri
    (fun i m -> if m > 0.0 then acc := f i m (bucket_avg_level t i) !acc)
    t.mass;
  !acc

let render t =
  let n = Array.length t.mass in
  let peak = Array.fold_left Float.max 0.0 t.mass in
  let glyphs = [| ' '; '.'; ':'; '-'; '='; '+'; '*'; '#' |] in
  let spark =
    String.init (min n 64) (fun col ->
        (* Collapse buckets into at most 64 columns. *)
        let per = max 1 (n / min n 64) in
        let lo = col * per in
        let m = ref 0.0 in
        for i = lo to min (n - 1) (lo + per - 1) do
          m := Float.max !m t.mass.(i)
        done;
        if peak <= 0.0 then ' '
        else glyphs.(min 7 (int_of_float (ceil (!m /. peak *. 7.0)))))
  in
  Printf.sprintf "%d rows, avg level %.1f, %d buckets [%s]" t.rows
    (avg_level t) n spark
