(* Land registry: the full DBMS loop on one scenario.

   Parcels (polygons) and protected wetlands (discs) live in relations;
   the spatial join finds parcels intersecting wetlands; aggregation
   answers "how much of each parcel is wet?"; the query planner shows the
   optimized plan; and the parcel-centroid index is persisted to a file
   and reloaded.

   Run with: dune exec examples/land_registry.exe *)

module R = Sqp_relalg
module P = Sqp_relalg.Plan
module Z = Sqp_zorder

let () =
  let space = Sqp_core.Ag.space ~dims:2 ~depth:7 in

  (* Parcels: id, polygon. *)
  let parcels =
    [
      (101, Sqp_geom.Shape.Polygon (Sqp_geom.Polygon.make [ (5, 5); (45, 8); (40, 40); (8, 35) ]));
      (102, Sqp_geom.Shape.Box (Sqp_geom.Box.of_ranges [ (50, 90); (10, 50) ]));
      (103, Sqp_geom.Shape.Box (Sqp_geom.Box.of_ranges [ (95, 125); (60, 120) ]));
    ]
  in
  (* Wetlands: id, disc. *)
  let wetlands =
    [
      (201, Sqp_geom.Shape.Circle (Sqp_geom.Circle.make ~cx:45 ~cy:25 ~radius:12));
      (202, Sqp_geom.Shape.Circle (Sqp_geom.Circle.make ~cx:110 ~cy:90 ~radius:9));
    ]
  in

  (* Decompose both sets into element relations. *)
  let r =
    R.Ops.rename [ ("id", "parcel"); ("z", "zr") ]
      (R.Query.decompose_relation ~name:"parcels" space parcels)
  in
  let s =
    R.Ops.rename [ ("id", "wetland"); ("z", "zs") ]
      (R.Query.decompose_relation ~name:"wetlands" space wetlands)
  in
  Printf.printf "parcels: %d element tuples; wetlands: %d element tuples\n"
    (R.Relation.cardinality r) (R.Relation.cardinality s);

  (* Which parcels touch which wetlands?  Plan it, explain it, run it. *)
  let plan =
    P.Project
      ( [ "parcel"; "wetland" ],
        P.Spatial_join { zl = "zr"; zr = "zs"; left = P.Scan r; right = P.Scan s } )
  in
  print_newline ();
  print_endline "plan:";
  print_string (P.explain (P.optimize plan));
  let pairs = P.run (P.optimize plan) in
  Format.printf "@.%a" R.Relation.pp pairs;

  (* How wet is each parcel?  Intersect decompositions via overlay and
     aggregate areas relationally. *)
  print_endline "wet area per parcel:";
  List.iter
    (fun (pid, shape) ->
      let parcel_layer = Sqp_core.Overlay.of_shape space shape () in
      let wet_area =
        List.fold_left
          (fun acc (_, wshape) ->
            let wet_layer = Sqp_core.Overlay.of_shape space wshape () in
            acc
            +. Sqp_core.Overlay.cells space
                 (Sqp_core.Overlay.inter space parcel_layer wet_layer))
          0.0 wetlands
      in
      let total = Sqp_core.Overlay.cells space parcel_layer in
      Printf.printf "  parcel %d: %.0f of %.0f cells wet (%.1f%%)\n" pid wet_area
        total
        (100.0 *. wet_area /. total))
    parcels;

  (* Global properties of the union of all wetlands. *)
  let wet_union =
    List.fold_left
      (fun acc (_, shape) ->
        Sqp_core.Overlay.union space acc (Sqp_core.Overlay.of_shape space shape ()))
      [] wetlands
  in
  let els = List.map fst wet_union in
  Printf.printf "\nwetland region: area %.0f, perimeter %d, %d separate ponds\n"
    (Sqp_core.Props.area space els)
    (Sqp_core.Props.perimeter space els)
    (Sqp_core.Ccl.label space els).Sqp_core.Ccl.component_count;

  (* Persist an index of parcel centroids and reload it. *)
  let centroid shape =
    let layer = Sqp_core.Overlay.of_shape space shape () in
    match Sqp_core.Props.centroid space (List.map fst layer) with
    | Some (x, y) -> [| int_of_float x; int_of_float y |]
    | None -> [| 0; 0 |]
  in
  let index =
    Sqp_btree.Zindex.of_points space
      (Array.of_list (List.map (fun (id, s) -> (centroid s, id)) parcels))
  in
  let path = Filename.temp_file "land_registry" ".sqp" in
  let pages = Sqp_btree.Persist.save ~path ~encode:string_of_int index in
  let reloaded = Sqp_btree.Persist.load ~path ~decode:int_of_string () in
  Printf.printf
    "\npersisted %d parcel centroids on %d pages; reloaded %d entries\n"
    (Sqp_btree.Zindex.length index) pages
    (Sqp_btree.Zindex.length reloaded);
  (match Sqp_btree.Zindex.nearest reloaded [| 60; 30 |] with
  | Some ((p, id), _) ->
      Printf.printf "nearest parcel to (60, 30): %d at (%d, %d)\n" id p.(0) p.(1)
  | None -> ());
  Sys.remove path
