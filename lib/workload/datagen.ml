type dataset = Uniform | Clustered | Diagonal

let dataset_name = function Uniform -> "U" | Clustered -> "C" | Diagonal -> "D"

(* Draws until [n] distinct points, in draw order.  A point is seen
   by its cell index, the Horner sum of its coordinates in base [side]:
   exact below [capacity] = side^dims, so the duplicate check hashes one
   int. *)
let distinct_fill ~side ~capacity ~n draw =
  if n > capacity then invalid_arg "Datagen: more points than grid cells";
  let seen = Hashtbl.create (2 * n) in
  let points = Array.make (max n 0) [||] in
  let count = ref 0 in
  let attempts = ref 0 in
  while !count < n do
    incr attempts;
    if !attempts > 1000 * (n + 100) then
      invalid_arg "Datagen: distribution too concentrated to yield distinct points";
    let p = draw () in
    let cell = ref 0 in
    for i = 0 to Array.length p - 1 do
      cell := (!cell * side) + p.(i)
    done;
    if not (Hashtbl.mem seen !cell) then begin
      Hashtbl.add seen !cell ();
      points.(!count) <- p;
      incr count
    end
  done;
  points

let uniform rng ~side ~n ~dims =
  let capacity =
    int_of_float (Float.pow (float_of_int side) (float_of_int dims))
  in
  distinct_fill ~side ~capacity ~n (fun () ->
      let p = Array.make dims 0 in
      for i = 0 to dims - 1 do
        p.(i) <- Rng.int rng side
      done;
      p)

let clamp side v = max 0 (min (side - 1) v)

let clustered rng ~side ~clusters ~per_cluster ~spread =
  let n = clusters * per_cluster in
  let centers =
    Array.init clusters (fun _ -> (Rng.int rng side, Rng.int rng side))
  in
  distinct_fill ~side ~capacity:(side * side) ~n (fun () ->
      let cx, cy = centers.(Rng.int rng clusters) in
      let dx = int_of_float (Rng.gaussian rng *. spread)
      and dy = int_of_float (Rng.gaussian rng *. spread) in
      [| clamp side (cx + dx); clamp side (cy + dy) |])

let diagonal rng ~side ~n ~jitter =
  distinct_fill ~side ~capacity:(side * side) ~n (fun () ->
      let x = Rng.int rng side in
      let dy = if jitter = 0 then 0 else Rng.int_in rng (-jitter) jitter in
      [| x; clamp side (x + dy) |])

let generate rng dataset ~side ~n =
  match dataset with
  | Uniform -> uniform rng ~side ~n ~dims:2
  | Clustered ->
      let clusters = 50 in
      let per_cluster = max 1 (n / clusters) in
      clustered rng ~side ~clusters ~per_cluster
        ~spread:(float_of_int side /. 64.0)
  | Diagonal -> diagonal rng ~side ~n ~jitter:(max 1 (side / 128))

let with_ids points = Array.mapi (fun i p -> (p, i)) points
