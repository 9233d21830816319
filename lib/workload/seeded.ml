module Z = Sqp_zorder

type t = {
  space : Z.Space.t;
  points : int array array;
  query : Sqp_geom.Box.t;
  query_boxes : Sqp_geom.Box.t array;
  left_objects : (int * Sqp_geom.Shape.t) list;
  right_objects : (int * Sqp_geom.Shape.t) list;
  decompose_options : Z.Decompose.options;
}

let standard_space = Z.Space.make ~dims:2 ~depth:10

let standard ?(n_points = 5000) ?(n_objects = 48) ?(n_query_boxes = 400) () =
  let space = standard_space in
  let side = Z.Space.side space in
  let points =
    let rng = Rng.create ~seed:77 in
    Datagen.uniform rng ~side ~n:n_points ~dims:2
  in
  let query = Sqp_geom.Box.of_ranges [ (100, 355); (200, 455) ] in
  let query_boxes =
    let rng = Rng.create ~seed:99 in
    Array.init n_query_boxes (fun _ ->
        let w = 1 + Rng.int rng (side / 4) and h = 1 + Rng.int rng (side / 4) in
        let x = Rng.int rng (side - w) and y = Rng.int rng (side - h) in
        Sqp_geom.Box.of_ranges [ (x, x + w - 1); (y, y + h - 1) ])
  in
  (* Both join sides draw from one seed-13 stream, left first — the
     historical bench definition, preserved bit for bit. *)
  let rng = Rng.create ~seed:13 in
  let objs tag =
    List.init n_objects (fun i ->
        let w = 1 + Rng.int rng (side / 8) and h = 1 + Rng.int rng (side / 8) in
        let x = Rng.int rng (side - w) and y = Rng.int rng (side - h) in
        ( tag + i,
          Sqp_geom.Shape.Box
            (Sqp_geom.Box.make ~lo:[| x; y |] ~hi:[| x + w - 1; y + h - 1 |]) ))
  in
  let left_objects = objs 0 in
  let right_objects = objs 1000 in
  {
    space;
    points;
    query;
    query_boxes;
    left_objects;
    right_objects;
    decompose_options = { Z.Decompose.max_level = Some 12; max_elements = None };
  }

let side t = Z.Space.side t.space

let tagged_points t = Array.mapi (fun i p -> (p, i)) t.points

let join_elements t =
  let decomposed objects =
    List.concat_map
      (fun (id, s) ->
        List.map
          (fun e -> (e, id))
          (Sqp_geom.Shape.decompose ~options:t.decompose_options t.space s))
      objects
  in
  (decomposed t.left_objects, decomposed t.right_objects)
