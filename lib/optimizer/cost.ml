module Z = Sqp_zorder

type params = {
  compare : float;
  emit : float;
  sort : float;
  page_access : float;
  distinct_witnesses : float;
      (* mean join witnesses (shared cover elements) per distinct object
         pair; divides a duplicate-eliminating projection over a join *)
}

(* Calibrated against the seeded workloads (see docs/COST_MODEL.md,
   "Calibration"): the unit is one z comparison; everything else is a
   small multiple measured from the counters the executor exposes. *)
let default_params =
  {
    compare = 1.0;
    emit = 2.0;
    sort = 1.0;
    page_access = 50.0;
    distinct_witnesses = 6.0;
  }

let log2 x = if x <= 1.0 then 0.0 else log x /. log 2.0

(* {1 Range search} *)

type range_method = Plain | Skip

type range_alternative = { method_ : range_method }

let predicted_range_pages ?entries_per_page ?rows ~n_pages ~space ~lo ~hi () =
  (* When ANALYZE has measured how many entries actually fit on a page
     (front-coded pages hold more than the fixed-width assumption), the
     learned density overrides the caller's page count. *)
  let n_pages =
    match (entries_per_page, rows) with
    | Some epp, Some r when epp > 0.0 ->
        if r <= 0 then 0
        else max 1 (int_of_float (ceil (float_of_int r /. epp)))
    | _ -> n_pages
  in
  if n_pages = 0 then 0.0
  else
    let query_extents = Array.mapi (fun i l -> hi.(i) - l + 1) lo in
    Z.Zmath.predicted_range_pages ~n_pages ~side:(Z.Space.side space)
      ~query_extents ()

(* {1 Spatial join} *)

let join_pairs hl hr =
  if Histogram.prefix_bits hl <> Histogram.prefix_bits hr then
    invalid_arg "Cost.join_pairs: histograms have different prefix_bits";
  let lbits = float_of_int (Histogram.prefix_bits hl) in
  let contain_p avg_level =
    Float.min 1.0 (Float.pow 2.0 (lbits -. avg_level))
  in
  Histogram.fold_nonempty
    (fun b l_mass l_level acc ->
      let r_mass = Histogram.bucket_mass hr b in
      if r_mass <= 0.0 then acc
      else
        let r_level = Histogram.bucket_avg_level hr b in
        acc +. (l_mass *. r_mass *. (contain_p l_level +. contain_p r_level)))
    hl 0.0

let merge_cost ?(params = default_params) ~left_rows ~right_rows ~pairs () =
  let n = left_rows +. right_rows in
  (params.sort *. n *. log2 n) +. (params.compare *. n) +. (params.emit *. pairs)

let scan_pages_cost ?(params = default_params) ~pages () =
  params.page_access *. float_of_int pages
