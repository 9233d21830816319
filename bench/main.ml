(* Benchmark harness.

   Part 1 regenerates every figure and experiment table from the paper
   (page-access counts, element counts, efficiencies — the units the
   paper reports); part 2 runs Bechamel timing micro-benchmarks over the
   main code paths so wall-clock behaviour can be tracked too; part 3
   is the int-key kernel table (BENCH_kernels.json).  Serving numbers
   live in perfbench/.

   Run with: dune exec bench/main.exe [-- --kernels [--quick]] *)

module Z = Sqp_zorder
module W = Sqp_workload
module Zindex = Sqp_btree.Zindex

open Bechamel
open Toolkit

(* All fixtures come from the shared seeded workload, so the CLI's
   [query] subcommand and the tests measure the same bytes. *)
let wk = W.Seeded.standard ()

let space = wk.W.Seeded.space

let tagged = W.Seeded.tagged_points wk

let index = Zindex.of_points ~leaf_capacity:20 space tagged

let kd = Sqp_kdtree.Paged_kdtree.build ~page_capacity:20 tagged

let prep = Sqp_core.Range_search.prepare space tagged

let query = wk.W.Seeded.query

let query_lo = Sqp_geom.Box.lo query and query_hi = Sqp_geom.Box.hi query

let bench_zorder =
  Test.make_grouped ~name:"zorder"
    [
      Test.make ~name:"shuffle"
        (Staged.stage (fun () -> Z.Interleave.shuffle space [| 123; 456 |]));
      Test.make ~name:"unshuffle"
        (let z = Z.Interleave.shuffle space [| 123; 456 |] in
         Staged.stage (fun () -> Z.Interleave.unshuffle space z));
      Test.make ~name:"decompose-box"
        (Staged.stage (fun () ->
             Z.Decompose.decompose_box space ~lo:query_lo ~hi:query_hi));
      Test.make ~name:"bigmin"
        (Staged.stage (fun () ->
             Z.Bigmin.bigmin space ~lo:query_lo ~hi:query_hi 123456));
    ]

let bench_range =
  Test.make_grouped ~name:"range-query(5000pts,1/16)"
    [
      Test.make ~name:"zkd-merge"
        (Staged.stage (fun () ->
             Zindex.range_search ~strategy:Zindex.Merge index query));
      Test.make ~name:"zkd-lazy"
        (Staged.stage (fun () ->
             Zindex.range_search ~strategy:Zindex.Lazy_merge index query));
      Test.make ~name:"zkd-bigmin"
        (Staged.stage (fun () ->
             Zindex.range_search ~strategy:Zindex.Bigmin index query));
      Test.make ~name:"zkd-scan"
        (Staged.stage (fun () ->
             Zindex.range_search ~strategy:Zindex.Scan index query));
      Test.make ~name:"paged-kdtree"
        (Staged.stage (fun () -> Sqp_kdtree.Paged_kdtree.range_search kd query));
      Test.make ~name:"mem-merge-plain"
        (Staged.stage (fun () -> Sqp_core.Range_search.search_plain prep query));
      Test.make ~name:"mem-merge-skip"
        (Staged.stage (fun () -> Sqp_core.Range_search.search_skip prep query));
    ]

let join_l, join_r = W.Seeded.join_elements wk

let bench_join =
  Test.make_grouped ~name:"spatial-join(48x48 boxes)"
    [
      Test.make ~name:"z-merge"
        (Staged.stage (fun () -> Sqp_core.Zmerge.pairs join_l join_r));
      Test.make ~name:"nested-loop"
        (Staged.stage (fun () -> Sqp_core.Zmerge.pairs_naive join_l join_r));
    ]

let overlay_space = Z.Space.make ~dims:2 ~depth:8

let overlay_a, overlay_b =
  let s = Z.Space.side overlay_space in
  ( Sqp_core.Overlay.of_shape overlay_space
      (Sqp_geom.Shape.Circle
         (Sqp_geom.Circle.make ~cx:(s / 3) ~cy:(s / 2) ~radius:(s / 4)))
      (),
    Sqp_core.Overlay.of_shape overlay_space
      (Sqp_geom.Shape.Polygon
         (Sqp_geom.Polygon.make
            [
              (s / 8, s / 8);
              (s - (s / 8), s / 4);
              (s - (s / 4), s - (s / 8));
              (s / 4, s - (s / 4));
            ]))
      () )

let grid_a = Sqp_grid.Bitgrid.of_elements overlay_space (List.map fst overlay_a)

let grid_b = Sqp_grid.Bitgrid.of_elements overlay_space (List.map fst overlay_b)

let bench_overlay =
  Test.make_grouped ~name:"overlay(256x256)"
    [
      Test.make ~name:"ag-elements"
        (Staged.stage (fun () ->
             Sqp_core.Overlay.overlay overlay_space overlay_a overlay_b));
      Test.make ~name:"grid-pixels"
        (Staged.stage (fun () -> Sqp_grid.Bitgrid.inter grid_a grid_b));
    ]

let ccl_fixture =
  let s = Z.Space.side overlay_space in
  let g = Sqp_grid.Bitgrid.create ~side:s in
  let rng = W.Rng.create ~seed:3 in
  for _ = 1 to 40 do
    let cx = W.Rng.int rng s and cy = W.Rng.int rng s in
    let r = 1 + W.Rng.int rng (s / 16) in
    for x = max 0 (cx - r) to min (s - 1) (cx + r) do
      for y = max 0 (cy - r) to min (s - 1) (cy + r) do
        if ((x - cx) * (x - cx)) + ((y - cy) * (y - cy)) <= r * r then
          Sqp_grid.Bitgrid.set g x y true
      done
    done
  done;
  (g, Sqp_grid.Bitgrid.to_elements overlay_space g)

let bench_ccl =
  let g, els = ccl_fixture in
  Test.make_grouped ~name:"ccl(256x256,40 blobs)"
    [
      Test.make ~name:"ag-elements"
        (Staged.stage (fun () -> Sqp_core.Ccl.label overlay_space els));
      Test.make ~name:"grid-pixels"
        (Staged.stage (fun () -> Sqp_grid.Bitgrid.connected_components g));
    ]

let kd_mem = Sqp_kdtree.Kdtree.build tagged

let bench_nearest =
  Test.make_grouped ~name:"nearest-neighbour(5000pts)"
    [
      Test.make ~name:"zkd-expanding-box"
        (Staged.stage (fun () -> Zindex.nearest index [| 500; 501 |]));
      Test.make ~name:"kdtree"
        (Staged.stage (fun () -> Sqp_kdtree.Kdtree.nearest kd_mem [| 500; 501 |]));
    ]

let bench_btree =
  Test.make_grouped ~name:"bptree"
    [
      Test.make ~name:"point-lookup"
        (Staged.stage (fun () -> Zindex.find index [| 123; 456 |]));
      Test.make ~name:"bulk-build-5000"
        (Staged.stage (fun () -> Zindex.of_points ~leaf_capacity:20 space tagged));
    ]

module R = Sqp_relalg

(* {1 Int-key kernel microbenches}

   Kernel (Zkernel's flat int keys) vs reference (Bitstring/list) on the
   query hot paths: the stable z sort the joins run, the Zmerge
   containment sweep, the box decomposition every range runs
   (decompose_box's int-bounds recursion vs [run] with box_classifier),
   both range-search merges (each decomposing its boxes), the two range
   answers a server writes (streamed vs list, relation and
   [encode_response]), and the relational spatial join.  Hand-rolled best-of-N wall clock — the two
   sides run identical workloads, so the ratio is the point.  Writes
   BENCH_kernels.json. *)
let kernels_table ~quick () =
  let reps = if quick then 3 else 7 in
  let n_boxes = if quick then 40 else Array.length wk.W.Seeded.query_boxes in
  (* Best-of-[reps], but at least [min_span] seconds of repetitions:
     sub-millisecond rows need far more than [reps] samples before the
     minimum settles on this (noisy) class of machine. *)
  let min_span = if quick then 0.05 else 0.5 in
  let time_best f =
    ignore (f ()) (* warm-up *);
    let best = ref infinity in
    let spent = ref 0.0 and runs = ref 0 in
    while !runs < reps || !spent < min_span do
      let t0 = Unix.gettimeofday () in
      ignore (f ());
      let dt = Unix.gettimeofday () -. t0 in
      best := Float.min !best dt;
      spent := !spent +. dt;
      incr runs
    done;
    !best
  in
  let zs_bits = Array.map (fun (p, _) -> Z.Interleave.shuffle space p) tagged in
  let boxes = Array.sub wk.W.Seeded.query_boxes 0 n_boxes in
  let schema_of name z =
    R.Schema.make [ (name, R.Value.TInt); (z, R.Value.TZval) ]
  in
  let rel_of name z items =
    R.Relation.make ~name (schema_of name z)
      (List.map (fun (e, id) -> [| R.Value.Int id; R.Value.Zval e |]) items)
  in
  let join_rel_r = rel_of "rid" "zr" join_l
  and join_rel_s = rel_of "sid" "zs" join_r in
  let boxes_row name reference kernel =
    let over f () = Array.iter f boxes in
    (Printf.sprintf "%s(%d boxes)" name n_boxes, over reference, over kernel)
  in
  let range_row name reference kernel =
    boxes_row name (fun b -> ignore (reference prep b)) (fun b -> ignore (kernel prep b))
  in
  let corners b = (Sqp_geom.Box.lo b, Sqp_geom.Box.hi b) in
  (* The answers a server writes for a range and a live-range read: the
     streamed tree answer against the list kernel (on the prepared
     array of the same points for a range), the boxed relation it used
     to build and [encode_response].  The serving catalog's [L] grows by
     350 batches of 32 inserts to 16,200 rows first, as a serving
     benchmark's ingest run grows it; the range answer reads the
     catalog's own tree, which those writes do not reach. *)
  let cat = Sqp_server.Catalog.of_seeded wk in
  let lv = Option.get (Sqp_server.Catalog.live cat "L") in
  let rng = W.Rng.create ~seed:23 in
  for b = 0 to 349 do
    ignore
      (Sqp_btree.Live.apply lv
         (List.init 32 (fun i ->
              Sqp_btree.Live.Insert
                ([| W.Rng.int rng 1024; W.Rng.int rng 1024 |], 1_000_000 + (32 * b) + i))))
  done;
  let int_relation name columns rows =
    R.Relation.make ~name
      (R.Schema.make (List.map (fun c -> (c, R.Value.TInt)) columns))
      (List.map (fun row -> Array.of_list (List.map (fun v -> R.Value.Int v) row)) rows)
  in
  let encoded r = Sqp_server.Protocol.encode_response (Sqp_server.Protocol.Rows r) in
  let rows =
    List.map
      (fun (name, reference, kernel) ->
        let reference_seconds = time_best reference in
        let kernel_seconds = time_best kernel in
        (name, reference_seconds, kernel_seconds))
      [
         ( Printf.sprintf "sort(%d z values)" (Array.length zs_bits),
           (fun () -> Array.stable_sort Z.Bitstring.compare (Array.copy zs_bits)),
           fun () ->
             ignore
               (Z.Zkernel.sort_keyed ~comparisons:(ref 0) (Array.get zs_bits)
                  (Array.length zs_bits)) );
         ( "merge(zmerge 48x48 join)",
           (fun () -> ignore (Sqp_core.Zmerge.pairs_reference join_l join_r)),
           fun () -> ignore (Sqp_core.Zmerge.pairs join_l join_r) );
         boxes_row "decompose"
           (fun b ->
             let lo, hi = corners b in
             ignore (Z.Decompose.run space (Z.Decompose.box_classifier space ~lo ~hi)))
           (fun b ->
             let lo, hi = corners b in
             ignore (Z.Decompose.decompose_box space ~lo ~hi));
         range_row "range-search-plain" Sqp_core.Range_search.search_plain_reference
           Sqp_core.Range_search.search_plain;
         range_row "range-search-skip" Sqp_core.Range_search.search_skip_reference
           Sqp_core.Range_search.search_skip;
         boxes_row "range-answer"
           (fun b ->
             ignore
               (encoded
                  (int_relation "range" [ "x0"; "x1" ]
                     (List.map
                        (fun (p, _) -> [ p.(0); p.(1) ])
                        (fst (Sqp_core.Range_search.search_skip prep b))))))
           (fun b -> ignore (Sqp_server.Server.range_answer cat b));
         boxes_row "live-answer"
           (fun b ->
             ignore
               (encoded
                  (int_relation "live" [ "id"; "x0"; "x1" ]
                     (List.map
                        (fun (p, id) -> [ id; p.(0); p.(1) ])
                        (fst (Sqp_btree.Live.range_search (Sqp_btree.Live.snapshot lv) b))))))
           (fun b -> ignore (Sqp_server.Server.live_answer lv b));
         ( "join(spatial-join merge)",
           (fun () ->
             ignore
               (R.Spatial_join.merge_reference join_rel_r ~zr:"zr" join_rel_s ~zs:"zs")),
           fun () ->
             ignore (R.Spatial_join.merge join_rel_r ~zr:"zr" join_rel_s ~zs:"zs") );
       ]
  in
  print_newline ();
  Printf.printf "Int-key z-value kernels vs bitstring reference (best of %d)\n"
    reps;
  print_endline "=====================================================================";
  Printf.printf "  %-36s %12s %12s %9s\n" "kernel" "reference" "kernel" "speedup";
  List.iter
    (fun (name, rs, ks) ->
      Printf.printf "  %-36s %9.3f ms %9.3f ms %8.2fx\n" name (rs *. 1e3)
        (ks *. 1e3) (rs /. ks))
    rows;
  let oc = open_out "BENCH_kernels.json" in
  Printf.fprintf oc "{\n  \"benchmark\": \"kernels\",\n  \"rows\": [\n%s\n  ]\n}\n"
    (String.concat ",\n"
       (List.map
          (fun (name, rs, ks) ->
            Printf.sprintf
              "    { \"name\": %S, \"reference_seconds\": %.6f, \
               \"kernel_seconds\": %.6f, \"speedup\": %.2f }"
              name rs ks (rs /. ks))
          rows));
  close_out oc;
  print_endline "  -> BENCH_kernels.json"

let run_bechamel () =
  let tests =
    Test.make_grouped ~name:"sqp"
      [
        bench_zorder; bench_range; bench_join; bench_overlay; bench_ccl;
        bench_nearest; bench_btree;
      ]
  in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.4) ~kde:None () in
  let raw = Benchmark.all cfg [ Instance.monotonic_clock ] tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name o acc -> (name, o) :: acc) results [] in
  let rows = List.sort (fun (a, _) (b, _) -> compare a b) rows in
  print_newline ();
  print_endline "Timing micro-benchmarks (Bechamel, monotonic clock)";
  print_endline "===================================================";
  List.iter
    (fun (name, o) ->
      let estimate =
        match Analyze.OLS.estimates o with Some (e :: _) -> e | _ -> nan
      in
      let r2 = match Analyze.OLS.r_square o with Some r -> r | None -> nan in
      let pretty v =
        if v >= 1e9 then Printf.sprintf "%8.2f s " (v /. 1e9)
        else if v >= 1e6 then Printf.sprintf "%8.2f ms" (v /. 1e6)
        else if v >= 1e3 then Printf.sprintf "%8.2f us" (v /. 1e3)
        else Printf.sprintf "%8.2f ns" v
      in
      Printf.printf "  %-45s %s/run   (r2 %.3f)\n" name (pretty estimate) r2)
    rows

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [] ->
      Sqp_core.Reports.run_all ();
      run_bechamel ();
      kernels_table ~quick:false ()
  | [ "--kernels" ] -> kernels_table ~quick:false ()
  | [ "--kernels"; "--quick" ] | [ "--quick"; "--kernels" ] ->
      kernels_table ~quick:true ()
  | _ ->
      prerr_endline "bench: usage: main.exe [--kernels [--quick]]";
      exit 2
