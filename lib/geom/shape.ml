type t =
  | Box of Box.t
  | Polygon of Polygon.t
  | Circle of Circle.t

let bounding_box = function
  | Box b -> b
  | Polygon p -> Polygon.bounding_box p
  | Circle c -> Circle.bounding_box c

let contains_cell shape x y =
  match shape with
  | Box b ->
      if Box.dims b <> 2 then invalid_arg "Shape.contains_cell: non-2d box";
      Box.contains_point b [| x; y |]
  | Polygon p -> Polygon.contains_cell p x y
  | Circle c -> Circle.contains_cell c x y

let classifier space = function
  | Box b -> Box.classifier space b
  | Polygon p -> Polygon.classifier space p
  | Circle c -> Circle.classifier space c

(* A box that meets the grid decomposes by [Decompose.decompose_box]'s
   int-bounds fold over its clip, element for element what [run] makes
   of its classifier; every other shape runs its classifier. *)
let decompose ?options space shape =
  let clipped =
    match shape with
    | Box b -> Box.clip b ~side:(Sqp_zorder.Space.side space)
    | Polygon _ | Circle _ -> None
  in
  match clipped with
  | Some c -> Sqp_zorder.Decompose.decompose_box ?options space ~lo:(Box.lo c) ~hi:(Box.hi c)
  | None -> Sqp_zorder.Decompose.run ?options space (classifier space shape)

let pp fmt = function
  | Box b -> Box.pp fmt b
  | Polygon p -> Polygon.pp fmt p
  | Circle c -> Circle.pp fmt c
