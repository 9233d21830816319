module Z = Sqp_zorder

type params = {
  compare : float;
  emit : float;
  sort : float;
  outer : float;
  refine : float;
  decompose : float;
  page_access : float;
  distinct_witnesses : float;
      (* mean join witnesses (shared cover elements) per distinct object
         pair; divides a duplicate-eliminating projection over a join *)
  plan_row : float;
      (* interpretive overhead per row flowing through a plan operator
         (boxed tuples, schema lookups) relative to the int-key direct
         kernels — the constant that separates the two range executors *)
}

(* Calibrated against the seeded workloads (see docs/COST_MODEL.md,
   "Calibration"): the unit is one z comparison; everything else is a
   small multiple measured from the counters the executor exposes. *)
let default_params =
  {
    compare = 1.0;
    emit = 2.0;
    sort = 1.0;
    outer = 0.5;
    refine = 3.0;
    decompose = 4.0;
    page_access = 50.0;
    distinct_witnesses = 6.0;
    plan_row = 8.0;
  }

let log2 x = if x <= 1.0 then 0.0 else log x /. log 2.0

(* {1 Range search} *)

type range_method = Plain | Skip

type range_alternative = {
  label : string;
  method_ : range_method;
  max_level : int option;
  elements : int;
  predicted_rows : float;
  needs_refine : bool;
  cost : float;
}

let cover ~space ?max_level ~lo ~hi () =
  let options =
    { Z.Decompose.default_options with Z.Decompose.max_level }
  in
  Z.Decompose.decompose_box ~options space ~lo ~hi

let box_volume lo hi =
  Array.fold_left ( *. ) 1.0
    (Array.mapi (fun i l -> float_of_int (hi.(i) - l + 1)) lo)

let cover_cells space elements =
  List.fold_left (fun acc e -> acc +. Z.Element.cells space e) 0.0 elements

let predicted_rows_of_cover hist elements =
  let raw =
    List.fold_left (fun acc e -> acc +. Histogram.element_mass hist e) 0.0 elements
  in
  Float.min raw (float_of_int (Histogram.rows hist))

let predicted_range_rows ~space ~hist ?max_level ~lo ~hi () =
  predicted_rows_of_cover hist (cover ~space ?max_level ~lo ~hi ())

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

let plain_cost p ~points ~elements ~rows =
  (p.compare *. (float_of_int points +. float_of_int elements))
  +. (p.decompose *. float_of_int elements)
  +. (p.emit *. rows)

let skip_cost p ~points ~elements ~rows =
  (* Each live element costs ~2 binary searches over P; dead stretches
     of P are never visited.  Conservatively every cover element is
     live. *)
  let searches = float_of_int ((2 * elements) + 2) in
  (p.compare *. (searches *. log2 (float_of_int points +. 1.0)))
  +. (p.compare *. rows)
  +. (p.decompose *. float_of_int elements)
  +. (p.emit *. rows)

let range_alternatives ?(params = default_params) ~space ~hist ~points ~lo ~hi
    () =
  let total = Z.Space.total_bits space in
  let dims = Z.Space.dims space in
  let volume = box_volume lo hi in
  let budgets =
    (* Pixel-exact, then progressively coarser stopping levels (one
       fewer split round per step, i.e. the paper's m = 1, 2, ... low
       bits zeroed per axis). *)
    None
    :: List.filter_map
         (fun m ->
           let l = total - (m * dims) in
           if l > 0 then Some (Some l) else None)
         [ 1; 2; 3; 4 ]
  in
  let alts =
    List.concat_map
      (fun max_level ->
        let elements_list = cover ~space ?max_level ~lo ~hi () in
        let elements = List.length elements_list in
        let rows = predicted_rows_of_cover hist elements_list in
        let needs_refine = cover_cells space elements_list > volume in
        let refine_cost =
          if needs_refine then params.refine *. rows else 0.0
        in
        let level_label =
          match max_level with
          | None -> ""
          | Some l -> Printf.sprintf "/coarse(%d)" (total - l)
        in
        List.map
          (fun method_ ->
            let base =
              match method_ with
              | Plain -> plain_cost params ~points ~elements ~rows
              | Skip -> skip_cost params ~points ~elements ~rows
            in
            {
              label =
                (match method_ with Plain -> "plain" | Skip -> "skip")
                ^ level_label;
              method_;
              max_level;
              elements;
              predicted_rows = rows;
              needs_refine;
              cost = base +. refine_cost;
            })
          [ Plain; Skip ])
      budgets
  in
  List.stable_sort (fun a b -> Float.compare a.cost b.cost) alts

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

let nested_loop_cost ?(params = default_params) ~left_rows ~right_rows ~pairs
    () =
  (params.compare *. left_rows *. right_rows)
  +. (params.outer *. left_rows)
  +. (params.emit *. pairs)

let scan_pages_cost ?(params = default_params) ~pages () =
  params.page_access *. float_of_int pages

let plan_path_cost ?(params = default_params) ~points alt =
  (* What the plan executor pays at this alternative's budget: a full
     merge join of the point relation with the cover (the plan's join
     never skips), the exact refine when the cover over-approximates,
     and the per-row interpreter overhead — the direct kernel pays
     [alt.cost] instead, with no such constant.  Method-independent. *)
  let points = float_of_int points in
  let elements = float_of_int alt.elements in
  let rows = alt.predicted_rows in
  merge_cost ~params ~left_rows:points ~right_rows:elements ~pairs:rows ()
  +. (if alt.needs_refine then params.refine *. rows else 0.0)
  +. (params.decompose *. elements)
  +. (params.plan_row *. (points +. elements +. rows))
