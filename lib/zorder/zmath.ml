let element_count space ~extents =
  let k = Space.dims space in
  if Array.length extents <> k then invalid_arg "Zmath.element_count: arity";
  Array.iter
    (fun u ->
      if u < 1 || u > Space.side space then
        invalid_arg "Zmath.element_count: extent out of range")
    extents;
  let lo = Array.make k 0 and hi = Array.map (fun u -> u - 1) extents in
  Decompose.count space (Decompose.box_classifier space ~lo ~hi)

let element_count_analytic space ~extents =
  let k = Space.dims space in
  if Array.length extents <> k then invalid_arg "Zmath.element_count_analytic: arity";
  Array.iter
    (fun u ->
      if u < 1 || u > Space.side space then
        invalid_arg "Zmath.element_count_analytic: extent out of range")
    extents;
  (* State: remaining extent per axis (anchored at the region origin),
     remaining split depth per axis, and the axis to split next.  The box
     is origin-anchored, so each split leaves a full-prefix left part and
     an origin-anchored right part. *)
  let memo = Hashtbl.create 256 in
  let rec count us ds axis =
    if Array.exists (fun u -> u = 0) us then 0
    else if Array.for_all2 (fun u d -> u = 1 lsl d) us ds then 1
    else begin
      let key = (Array.to_list us, Array.to_list ds, axis) in
      match Hashtbl.find_opt memo key with
      | Some n -> n
      | None ->
          (* Find the next axis that can still split. *)
          let rec next_axis a tried =
            if tried = k then a (* all depths 0: handled by the cases above *)
            else if ds.(a) > 0 then a
            else next_axis ((a + 1) mod k) (tried + 1)
          in
          let a = next_axis axis 0 in
          let s = 1 lsl (ds.(a) - 1) in
          let ds' = Array.copy ds in
          ds'.(a) <- ds.(a) - 1;
          let left =
            let us' = Array.copy us in
            us'.(a) <- min us.(a) s;
            count us' ds' ((a + 1) mod k)
          in
          let right =
            if us.(a) > s then begin
              let us' = Array.copy us in
              us'.(a) <- us.(a) - s;
              count us' ds' ((a + 1) mod k)
            end
            else 0
          in
          let n = left + right in
          Hashtbl.replace memo key n;
          n
    end
  in
  count (Array.copy extents) (Array.make k (Space.depth space)) 0

let bit_spread extents =
  let v = Array.fold_left ( lor ) 0 extents in
  if v = 0 then 0
  else begin
    let high = ref 0 in
    let low = ref 62 in
    for i = 0 to 62 do
      if (v lsr i) land 1 = 1 then begin
        if i > !high then high := i;
        if i < !low then low := i
      end
    done;
    !high - !low + 1
  end

let coarsen_extent u ~m =
  if u < 0 then invalid_arg "Zmath.coarsen_extent: negative";
  if m < 0 || m > 61 then invalid_arg "Zmath.coarsen_extent: bad m";
  let mask = (1 lsl m) - 1 in
  if u land mask = 0 then u else (u lor mask) + 1

let coarsen space ~extents ~m =
  Array.map (fun u -> min (Space.side space) (coarsen_extent u ~m)) extents

type coarsening_report = {
  m : int;
  extents : int array;
  elements : int;
  area_ratio : float;
}

let volume extents = Array.fold_left (fun acc u -> acc *. float_of_int u) 1.0 extents

let coarsening_sweep space ~extents =
  let true_volume = volume extents in
  List.init
    (Space.depth space + 1)
    (fun m ->
      let extents = coarsen space ~extents ~m in
      {
        m;
        extents;
        elements = element_count space ~extents;
        area_ratio = volume extents /. true_volume;
      })

type proximity_row = {
  spatial_distance : int;
  samples : int;
  median_rank_distance : int;
  p90_rank_distance : int;
  within_page : float;
}

let proximity_table ~rng space ~distances ~samples ~pages =
  if Space.dims space <> 2 then invalid_arg "Zmath.proximity_table: 2d only";
  let side = Space.side space in
  let cells_per_page =
    max 1 (int_of_float (Space.cells space /. float_of_int pages))
  in
  let sample_pair delta =
    (* Pick a random point, then a random second point at Chebyshev
       distance exactly delta (on the square ring around the first). *)
    let rec try_once () =
      let x = rng side and y = rng side in
      (* Ring positions: parameterize the 8*delta - ... perimeter; simpler:
         pick dx, dy in [-delta, delta] with max |dx| |dy| = delta. *)
      let dx = rng ((2 * delta) + 1) - delta in
      let dy =
        if abs dx = delta then rng ((2 * delta) + 1) - delta
        else if rng 2 = 0 then delta
        else -delta
      in
      let x2 = x + dx and y2 = y + dy in
      if x2 < 0 || x2 >= side || y2 < 0 || y2 >= side then try_once ()
      else ([| x; y |], [| x2; y2 |])
    in
    try_once ()
  in
  let percentile sorted p =
    let n = Array.length sorted in
    sorted.(min (n - 1) (int_of_float (p *. float_of_int n)))
  in
  List.map
    (fun delta ->
      let dists =
        Array.init samples (fun _ ->
            let a, b = sample_pair delta in
            Curve.rank_distance space a b)
      in
      Array.sort compare dists;
      let within =
        Array.fold_left (fun acc d -> if d <= cells_per_page then acc + 1 else acc) 0 dists
      in
      {
        spatial_distance = delta;
        samples;
        median_rank_distance = percentile dists 0.5;
        p90_rank_distance = percentile dists 0.9;
        within_page = float_of_int within /. float_of_int samples;
      })
    distances

let predicted_range_pages ?(pages_per_block = 1.0) ~n_pages ~side ~query_extents () =
  let k = Array.length query_extents in
  (* Blocks of [pages_per_block] pages tile the space in near-cubical
     tiles; a query overlaps at most prod (q_i / block_side + 1) blocks,
     each contributing at most [pages_per_block] pages. *)
  let blocks = float_of_int n_pages /. pages_per_block in
  let block_side =
    float_of_int side /. Float.pow blocks (1.0 /. float_of_int k)
  in
  pages_per_block
  *. Array.fold_left
       (fun acc q -> acc *. ((float_of_int q /. block_side) +. 1.0))
       1.0 query_extents

let predicted_partial_match_pages ~n_pages ~dims ~restricted =
  Float.pow
    (float_of_int n_pages)
    (1.0 -. (float_of_int restricted /. float_of_int dims))
