type t = { lo : int array; hi : int array }

let make ~lo ~hi =
  let k = Array.length lo in
  if Array.length hi <> k || k = 0 then invalid_arg "Box.make: bad arity";
  for i = 0 to k - 1 do
    if lo.(i) > hi.(i) then invalid_arg "Box.make: lo > hi"
  done;
  { lo = Array.copy lo; hi = Array.copy hi }

let of_ranges ranges =
  let lo = Array.of_list (List.map fst ranges)
  and hi = Array.of_list (List.map snd ranges) in
  make ~lo ~hi

let dims b = Array.length b.lo

let lo b = Array.copy b.lo
let hi b = Array.copy b.hi

let extent b i = b.hi.(i) - b.lo.(i) + 1

let extents b = Array.init (dims b) (extent b)

let volume b =
  let v = ref 1.0 in
  for i = 0 to dims b - 1 do
    v := !v *. float_of_int (extent b i)
  done;
  !v

(* A top-level recursion, not a local one: a local [go] would capture
   [b] and [p] in a closure allocated on every call, and this test runs
   once per scanned entry in the range searches. *)
let rec contains_from lo hi p i =
  i = Array.length lo || (lo.(i) <= p.(i) && p.(i) <= hi.(i) && contains_from lo hi p (i + 1))

let contains_point b p = Array.length p = dims b && contains_from b.lo b.hi p 0

let contains_box outer inner =
  dims outer = dims inner
  &&
  let rec go i =
    i = dims outer
    || (outer.lo.(i) <= inner.lo.(i) && inner.hi.(i) <= outer.hi.(i) && go (i + 1))
  in
  go 0

let overlaps a b =
  dims a = dims b
  &&
  let rec go i =
    i = dims a || (a.lo.(i) <= b.hi.(i) && b.lo.(i) <= a.hi.(i) && go (i + 1))
  in
  go 0

let intersection a b =
  if not (overlaps a b) then None
  else
    Some
      (make
         ~lo:(Array.init (dims a) (fun i -> max a.lo.(i) b.lo.(i)))
         ~hi:(Array.init (dims a) (fun i -> min a.hi.(i) b.hi.(i))))

let equal a b = a.lo = b.lo && a.hi = b.hi

let translate b delta =
  if Array.length delta <> dims b then invalid_arg "Box.translate: arity";
  make
    ~lo:(Array.mapi (fun i v -> v + delta.(i)) b.lo)
    ~hi:(Array.mapi (fun i v -> v + delta.(i)) b.hi)

let clip b ~side =
  let lo = Array.map (fun v -> max 0 v) b.lo
  and hi = Array.map (fun v -> min (side - 1) v) b.hi in
  let rec bad i = i < dims b && (lo.(i) > hi.(i) || bad (i + 1)) in
  if bad 0 then None else Some (make ~lo ~hi)

let classifier space b =
  (* Clip to the grid: the portion outside the grid holds no pixels. *)
  match clip b ~side:(Sqp_zorder.Space.side space) with
  | None -> fun _ -> Sqp_zorder.Decompose.Outside
  | Some b -> Sqp_zorder.Decompose.box_classifier space ~lo:b.lo ~hi:b.hi

let pp fmt b =
  Format.fprintf fmt "[%s]"
    (String.concat "; "
       (List.init (dims b) (fun i -> Printf.sprintf "%d:%d" b.lo.(i) b.hi.(i))))
