let of_element space e =
  let total = Space.total_bits space in
  let level = Element.level e in
  let base = Bitstring.to_int (Element.z e) lsl (total - level) in
  (base, base lor ((1 lsl (total - level)) - 1))

let to_element space ~lo ~hi =
  let total = Space.total_bits space in
  let extent = hi - lo + 1 in
  if lo < 0 || hi >= 1 lsl total || extent <= 0 then None
  else if extent land (extent - 1) <> 0 then None
  else if lo land (extent - 1) <> 0 then None
  else
    let rec log2 acc n = if n = 1 then acc else log2 (acc + 1) (n lsr 1) in
    let s = log2 0 extent in
    Some (Bitstring.of_int (lo lsr s) ~width:(total - s))

let check_interval space ~lo ~hi =
  if lo < 0 || lo > hi then invalid_arg "Zrange: bad interval";
  if hi lsr Space.total_bits space <> 0 then invalid_arg "Zrange: interval out of space"

(* Greedy buddy decomposition: at position [pos], emit the largest aligned
   block starting at [pos] that does not overshoot [hi]. *)
let fold_cover space ~lo ~hi f init =
  check_interval space ~lo ~hi;
  let total = Space.total_bits space in
  let rec go pos acc =
    if pos > hi then acc
    else begin
      (* Largest s with pos aligned to 2^s and pos + 2^s - 1 <= hi. *)
      let max_align = if pos = 0 then total else
        let rec tz acc n = if n land 1 = 1 then acc else tz (acc + 1) (n lsr 1) in
        tz 0 pos
      in
      let rec fit s = if s > 0 && (s > max_align || pos + (1 lsl s) - 1 > hi) then fit (s - 1) else s in
      let s = fit (min max_align total) in
      let e = Bitstring.of_int (pos lsr s) ~width:(total - s) in
      go (pos + (1 lsl s)) (f acc e)
    end
  in
  go lo init

let cover space ~lo ~hi = List.rev (fold_cover space ~lo ~hi (fun acc e -> e :: acc) [])

let cover_count space ~lo ~hi = fold_cover space ~lo ~hi (fun n _ -> n + 1) 0

let elements_to_intervals space elements =
  let ranges = List.map (of_element space) elements in
  let rec merge = function
    | [] -> []
    | [ r ] -> [ r ]
    | (lo1, hi1) :: ((lo2, hi2) :: rest as tl) ->
        if hi1 + 1 = lo2 then merge ((lo1, hi2) :: rest)
        else if hi1 >= lo2 then invalid_arg "Zrange.elements_to_intervals: overlapping elements"
        else (lo1, hi1) :: merge tl
  in
  merge ranges

let intervals_to_elements space intervals =
  List.concat_map (fun (lo, hi) -> cover space ~lo ~hi) intervals

let total_cells intervals =
  List.fold_left (fun acc (lo, hi) -> acc + (hi - lo + 1)) 0 intervals

(* [intervals] ascending and disjoint; one interval vs the list.  Early
   exit both ways: stop as soon as an interval starts past [hi]. *)
let overlaps_interval intervals ~lo ~hi =
  if lo > hi then invalid_arg "Zrange.overlaps_interval: bad interval";
  let rec go = function
    | [] -> false
    | (l, h) :: rest -> if l > hi then false else h >= lo || go rest
  in
  go intervals

let cover_overlaps space elements ~lo ~hi =
  overlaps_interval (elements_to_intervals space elements) ~lo ~hi
