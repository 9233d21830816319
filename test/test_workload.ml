module W = Sqp_workload

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* {1 Rng} *)

let test_rng_deterministic () =
  let a = W.Rng.create ~seed:42 and b = W.Rng.create ~seed:42 in
  for _ = 1 to 100 do
    check "same stream" true (W.Rng.next a = W.Rng.next b)
  done;
  let c = W.Rng.create ~seed:43 in
  check "different seed" true (W.Rng.next (W.Rng.create ~seed:42) <> W.Rng.next c)

let test_rng_bounds () =
  let rng = W.Rng.create ~seed:1 in
  for _ = 1 to 1000 do
    let v = W.Rng.int rng 10 in
    check "in range" true (v >= 0 && v < 10);
    let w = W.Rng.int_in rng (-5) 5 in
    check "int_in range" true (w >= -5 && w <= 5);
    let f = W.Rng.float rng in
    check "float range" true (f >= 0.0 && f < 1.0)
  done

let test_rng_invalid () =
  let rng = W.Rng.create ~seed:1 in
  (match W.Rng.int rng 0 with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ());
  match W.Rng.int_in rng 5 4 with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let test_rng_uniformity () =
  let rng = W.Rng.create ~seed:5 in
  let buckets = Array.make 10 0 in
  let n = 20000 in
  for _ = 1 to n do
    let v = W.Rng.int rng 10 in
    buckets.(v) <- buckets.(v) + 1
  done;
  Array.iter
    (fun c ->
      (* Expected 2000 per bucket; allow +-15%. *)
      check "roughly uniform" true (c > 1700 && c < 2300))
    buckets

let test_rng_gaussian_moments () =
  let rng = W.Rng.create ~seed:9 in
  let n = 20000 in
  let sum = ref 0.0 and sum2 = ref 0.0 in
  for _ = 1 to n do
    let g = W.Rng.gaussian rng in
    sum := !sum +. g;
    sum2 := !sum2 +. (g *. g)
  done;
  let mean = !sum /. float_of_int n in
  let var = (!sum2 /. float_of_int n) -. (mean *. mean) in
  check "mean near 0" true (abs_float mean < 0.05);
  check "variance near 1" true (abs_float (var -. 1.0) < 0.1)

let test_rng_shuffle () =
  let rng = W.Rng.create ~seed:3 in
  let a = Array.init 20 Fun.id in
  W.Rng.shuffle rng a;
  check "permutation" true
    (List.sort compare (Array.to_list a) = List.init 20 Fun.id);
  check "actually moved" true (a <> Array.init 20 Fun.id)

let test_rng_split_independent () =
  let rng = W.Rng.create ~seed:11 in
  let child = W.Rng.split rng in
  check "distinct streams" true (W.Rng.next rng <> W.Rng.next child)

(* {1 Datagen} *)

let all_distinct pts =
  let tbl = Hashtbl.create 64 in
  Array.for_all
    (fun p ->
      let k = Array.to_list p in
      if Hashtbl.mem tbl k then false
      else begin
        Hashtbl.replace tbl k ();
        true
      end)
    pts

let in_grid side pts =
  Array.for_all (fun p -> Array.for_all (fun c -> c >= 0 && c < side) p) pts

let test_uniform () =
  let rng = W.Rng.create ~seed:1 in
  let pts = W.Datagen.uniform rng ~side:64 ~n:500 ~dims:2 in
  check_int "count" 500 (Array.length pts);
  check "distinct" true (all_distinct pts);
  check "in grid" true (in_grid 64 pts)

let test_uniform_3d () =
  let rng = W.Rng.create ~seed:1 in
  let pts = W.Datagen.uniform rng ~side:16 ~n:200 ~dims:3 in
  check "3d points" true (Array.for_all (fun p -> Array.length p = 3) pts);
  check "distinct" true (all_distinct pts)

let test_uniform_overfull () =
  let rng = W.Rng.create ~seed:1 in
  match W.Datagen.uniform rng ~side:4 ~n:17 ~dims:2 with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let test_clustered () =
  let rng = W.Rng.create ~seed:2 in
  let pts = W.Datagen.clustered rng ~side:256 ~clusters:10 ~per_cluster:50 ~spread:4.0 in
  check_int "count" 500 (Array.length pts);
  check "distinct" true (all_distinct pts);
  check "in grid" true (in_grid 256 pts)

let test_diagonal () =
  let rng = W.Rng.create ~seed:3 in
  let pts = W.Datagen.diagonal rng ~side:256 ~n:300 ~jitter:4 in
  check_int "count" 300 (Array.length pts);
  check "near the diagonal" true
    (Array.for_all (fun p -> abs (p.(0) - p.(1)) <= 4) pts)

let test_generate_paper_datasets () =
  List.iter
    (fun ds ->
      let rng = W.Rng.create ~seed:4 in
      let pts = W.Datagen.generate rng ds ~side:1024 ~n:5000 in
      check "5000 points" true (Array.length pts = 5000);
      check "distinct" true (all_distinct pts))
    W.Datagen.[ Uniform; Clustered; Diagonal ]

let test_dataset_names () =
  Alcotest.(check string) "U" "U" (W.Datagen.dataset_name W.Datagen.Uniform);
  Alcotest.(check string) "C" "C" (W.Datagen.dataset_name W.Datagen.Clustered);
  Alcotest.(check string) "D" "D" (W.Datagen.dataset_name W.Datagen.Diagonal)

let test_clustered_is_clustered () =
  (* Clustered data has lower mean nearest-neighbour distance than uniform. *)
  let nn_mean pts =
    let n = Array.length pts in
    let total = ref 0.0 in
    for i = 0 to n - 1 do
      let best = ref max_int in
      for j = 0 to n - 1 do
        if i <> j then
          best := min !best (Sqp_geom.Point.euclidean_sq pts.(i) pts.(j))
      done;
      total := !total +. sqrt (float_of_int !best)
    done;
    !total /. float_of_int n
  in
  let ru = W.Rng.create ~seed:5 and rc = W.Rng.create ~seed:5 in
  let u = W.Datagen.uniform ru ~side:512 ~n:300 ~dims:2 in
  let c = W.Datagen.clustered rc ~side:512 ~clusters:10 ~per_cluster:30 ~spread:5.0 in
  check "clusters tighter" true (nn_mean c < nn_mean u)

(* The generators' points at fixed seeds, pinned by digest (recorded
   before the duplicate check was keyed by cell index): how a draw is
   found to be a duplicate must not change which points come out, nor
   their order. *)
let points_digest pts =
  Digest.to_hex
    (Digest.string
       (String.concat ";"
          (Array.to_list
             (Array.map
                (fun p -> String.concat "," (Array.to_list (Array.map string_of_int p)))
                pts))))

let test_datagen_digests () =
  let rng seed = W.Rng.create ~seed in
  let pin what digest pts = Alcotest.(check string) what digest (points_digest pts) in
  pin "uniform 2d (the standard points)" "d358b979684e1ddfa70c24ffc9fc1d4f"
    (W.Datagen.uniform (rng 77) ~side:1024 ~n:5000 ~dims:2);
  pin "uniform 3d, most cells full" "0c23af6d335ca2ec7ec7a051438744c6"
    (W.Datagen.uniform (rng 5) ~side:16 ~n:3000 ~dims:3);
  pin "clustered" "05facc4c64cf53c6283498032e2c1ec2"
    (W.Datagen.clustered (rng 6) ~side:1024 ~clusters:50 ~per_cluster:100 ~spread:16.0);
  pin "diagonal" "a20e1c9e8bd4cf6fe5d55910f4f2ccd6"
    (W.Datagen.diagonal (rng 7) ~side:1024 ~n:5000 ~jitter:8);
  List.iter2
    (fun ds digest ->
      pin ("generate " ^ W.Datagen.dataset_name ds) digest
        (W.Datagen.generate (rng 8) ds ~side:256 ~n:1000))
    W.Datagen.[ Uniform; Clustered; Diagonal ]
    [
      "0642477db205a8786cd49da3926f3932";
      "d790ec926b99ae0b3e34f825cc96eed1";
      "120ddc2060256fcdcb7c6ca667800d80";
    ]

(* {1 Querygen} *)

let test_extents () =
  let w, h = W.Querygen.extents_of_spec ~side:256 { W.Querygen.volume_fraction = 0.25; aspect = 1.0 } in
  check_int "square width" 128 w;
  check_int "square height" 128 h;
  let w2, h2 = W.Querygen.extents_of_spec ~side:256 { W.Querygen.volume_fraction = 0.25; aspect = 4.0 } in
  check "wide" true (w2 > h2);
  check "area approx" true (abs ((w2 * h2) - 16384) < 2048)

let test_extents_clamped () =
  let w, h = W.Querygen.extents_of_spec ~side:64 { W.Querygen.volume_fraction = 1.0; aspect = 16.0 } in
  check "clamped to side" true (w <= 64 && h <= 64 && w >= 1 && h >= 1)

let test_extents_invalid () =
  List.iter
    (fun spec ->
      match W.Querygen.extents_of_spec ~side:64 spec with
      | _ -> Alcotest.fail "expected Invalid_argument"
      | exception Invalid_argument _ -> ())
    [
      { W.Querygen.volume_fraction = 0.0; aspect = 1.0 };
      { W.Querygen.volume_fraction = 1.5; aspect = 1.0 };
      { W.Querygen.volume_fraction = 0.5; aspect = 0.0 };
    ]

let test_random_box_inside () =
  let rng = W.Rng.create ~seed:6 in
  for _ = 1 to 200 do
    let spec = { W.Querygen.volume_fraction = 0.1; aspect = 2.0 } in
    let box = W.Querygen.random_box rng ~side:128 spec in
    let lo = Sqp_geom.Box.lo box and hi = Sqp_geom.Box.hi box in
    check "inside grid" true
      (lo.(0) >= 0 && lo.(1) >= 0 && hi.(0) < 128 && hi.(1) < 128)
  done

let test_partial_match_spec () =
  let rng = W.Rng.create ~seed:7 in
  let spec = W.Querygen.partial_match_spec rng ~side:64 ~dims:4 ~restricted:2 in
  check_int "arity" 4 (Array.length spec);
  check_int "pinned" 2
    (Array.fold_left (fun n s -> if s <> None then n + 1 else n) 0 spec);
  Array.iter
    (function Some v -> check "pinned value in grid" true (v >= 0 && v < 64) | None -> ())
    spec

let () =
  Alcotest.run "workload"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "invalid" `Quick test_rng_invalid;
          Alcotest.test_case "uniformity" `Quick test_rng_uniformity;
          Alcotest.test_case "gaussian moments" `Quick test_rng_gaussian_moments;
          Alcotest.test_case "shuffle" `Quick test_rng_shuffle;
          Alcotest.test_case "split" `Quick test_rng_split_independent;
        ] );
      ( "datagen",
        [
          Alcotest.test_case "uniform" `Quick test_uniform;
          Alcotest.test_case "uniform 3d" `Quick test_uniform_3d;
          Alcotest.test_case "overfull grid" `Quick test_uniform_overfull;
          Alcotest.test_case "clustered" `Quick test_clustered;
          Alcotest.test_case "diagonal" `Quick test_diagonal;
          Alcotest.test_case "paper datasets" `Quick test_generate_paper_datasets;
          Alcotest.test_case "names" `Quick test_dataset_names;
          Alcotest.test_case "clustering is real" `Quick test_clustered_is_clustered;
          Alcotest.test_case "points pinned by digest" `Quick test_datagen_digests;
        ] );
      ( "querygen",
        [
          Alcotest.test_case "extents" `Quick test_extents;
          Alcotest.test_case "extents clamped" `Quick test_extents_clamped;
          Alcotest.test_case "extents invalid" `Quick test_extents_invalid;
          Alcotest.test_case "random box inside grid" `Quick test_random_box_inside;
          Alcotest.test_case "partial match spec" `Quick test_partial_match_spec;
        ] );
    ]
