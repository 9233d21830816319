module Z = Sqp_zorder

let coord_attr i = Printf.sprintf "x%d" i

let points_relation ?(name = "P") space points =
  let k = Z.Space.dims space in
  let schema =
    Schema.make
      ((("id", Value.TInt) :: ("z", Value.TZval) :: [])
      @ List.init k (fun i -> (coord_attr i, Value.TInt)))
  in
  let tuples =
    List.map
      (fun (id, p) ->
        let tu = Array.make (k + 2) (Value.Int id) in
        tu.(1) <- Value.Zval (Z.Interleave.shuffle space p);
        for i = 0 to k - 1 do
          tu.(i + 2) <- Value.Int p.(i)
        done;
        tu)
      points
  in
  Relation.make ~name schema tuples

let decompose_relation ?(name = "R") ?options space objects =
  let schema = Schema.make [ ("id", Value.TInt); ("z", Value.TZval) ] in
  let tuples =
    List.concat_map
      (fun (id, shape) ->
        List.map
          (fun e -> [| Value.Int id; Value.Zval e |])
          (Sqp_geom.Shape.decompose ?options space shape))
      objects
  in
  Relation.make ~name schema tuples

let box_relation ?(name = "B") space box =
  let schema = Schema.make [ ("z", Value.TZval) ] in
  let els =
    Z.Decompose.decompose_box space ~lo:(Sqp_geom.Box.lo box) ~hi:(Sqp_geom.Box.hi box)
  in
  Relation.make ~name schema (List.map (fun e -> [| Value.Zval e |]) els)

let range_query space points box =
  let k = Z.Space.dims space in
  let p = points_relation space points in
  let b = Ops.rename [ ("z", "zb") ] (box_relation space box) in
  let joined, _ = Spatial_join.merge p ~zr:"z" b ~zs:"zb" in
  Ops.project (List.init k coord_attr) joined

let stored_overlap_plan ?options ?tuples_per_page ?pool_capacity space
    r_objects s_objects =
  let stored name renames objects =
    Stored.store ?tuples_per_page ?pool_capacity
      (Ops.rename renames (decompose_relation ?options ~name space objects))
  in
  let r = stored "R" [ ("id", "rid"); ("z", "zr") ] r_objects in
  let s = stored "S" [ ("id", "sid"); ("z", "zs") ] s_objects in
  Plan.Project
    ( [ "rid"; "sid" ],
      Plan.Spatial_join
        {
          zl = "zr";
          zr = "zs";
          left = Plan.Scan_stored r;
          right = Plan.Scan_stored s;
        } )

let overlapping_pairs ?options space r_objects s_objects =
  let r = decompose_relation ?options ~name:"R" space r_objects in
  let s =
    Ops.rename [ ("id", "sid"); ("z", "zs") ]
      (decompose_relation ?options ~name:"S" space s_objects)
  in
  let r = Ops.rename [ ("id", "rid"); ("z", "zr") ] r in
  let joined, _ = Spatial_join.merge r ~zr:"zr" s ~zs:"zs" in
  Ops.project [ "rid"; "sid" ] joined
