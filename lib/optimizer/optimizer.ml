module P = Sqp_relalg.Plan
module Relation = Sqp_relalg.Relation
module Schema = Sqp_relalg.Schema
module Value = Sqp_relalg.Value
module Stored = Sqp_relalg.Stored
module SStats = Sqp_storage.Stats

type estimate = { est_rows : float; est_pages : float; est_cost : float }

(* Internal per-node info: the estimate plus the z-column histograms
   visible in the node's output schema, keyed by column name — how a
   spatial join higher up finds the distributions of its two inputs. *)
type info = {
  rows : float;
  pages : float;   (* subtree-inclusive predicted page accesses *)
  cost : float;    (* subtree-inclusive predicted work units *)
  hists : (string * Histogram.t) list;
}

let build_hists ~prefix_bits ~space rel =
  let schema = Relation.schema rel in
  List.filter_map
    (fun (n, ty) ->
      if ty <> Value.TZval then None
      else
        let idx = Schema.index schema n in
        let zs =
          List.to_seq (Relation.tuples rel)
          |> Seq.map (fun tu -> Value.to_zval tu.(idx))
        in
        Some (n, Histogram.build ~prefix_bits ~space zs))
    (Schema.attrs schema)

let stats_hists (stats : Stats.t) name =
  match Stats.find stats name with
  | Some rs -> rs.Stats.z_columns
  | None -> []

(* Estimated pairs out of a spatial join: from the two z histograms
   when both sides have one, else the textbook fallback. *)
let join_pairs_est li ~zl ri ~zr =
  match (List.assoc_opt zl li.hists, List.assoc_opt zr ri.hists) with
  | Some hl, Some hr when Histogram.prefix_bits hl = Histogram.prefix_bits hr
    ->
      Cost.join_pairs hl hr
  | _ -> 0.2 *. Float.max li.rows ri.rows

let rec info ?(params = Cost.default_params) (stats : Stats.t) record plan =
  let prefix_bits = stats.Stats.prefix_bits in
  let space = stats.Stats.space in
  let recur = info ~params stats record in
  let i =
    match plan with
    | P.Scan r ->
        let name = Relation.name r in
        let hists =
          match stats_hists stats name with
          | [] when Relation.cardinality r <= 100_000 ->
              (* Anonymous in-memory input (e.g. a per-query box cover):
                 already materialized, so an exact histogram is cheap. *)
              build_hists ~prefix_bits ~space r
          | hs -> hs
        in
        let rows = float_of_int (Relation.cardinality r) in
        { rows; pages = 0.0; cost = params.Cost.compare *. rows; hists }
    | P.Scan_stored st ->
        let rows =
          match Stats.find stats (Stored.name st) with
          | Some rs -> float_of_int rs.Stats.rows
          | None -> float_of_int (Stored.cardinality st)
        in
        let pages = float_of_int (Stored.pages st) in
        {
          rows;
          pages;
          cost =
            Cost.scan_pages_cost ~params ~pages:(Stored.pages st) ()
            +. (params.Cost.compare *. rows);
          hists = stats_hists stats (Stored.name st);
        }
    | P.Select (_, inner) ->
        let i = recur inner in
        {
          i with
          rows = i.rows /. 3.0;
          cost = i.cost +. (params.Cost.compare *. i.rows);
        }
    | P.Project (names, inner) ->
        let i = recur inner in
        let rec has_join = function
          | P.Spatial_join _ -> true
          | P.Scan _ | P.Scan_stored _ -> false
          | P.Select (_, i) | P.Project (_, i) | P.Project_all (_, i)
          | P.Rename (_, i) | P.Sort (_, i) ->
              has_join i
          | P.Natural_join (a, b) | P.Product (a, b) | P.Union (a, b) ->
              has_join a || has_join b
        in
        let dedup =
          (* A distinct projection over a containment join collapses the
             per-element witnesses of each object pair. *)
          if has_join inner then 1.0 /. params.Cost.distinct_witnesses else 0.9
        in
        {
          rows = i.rows *. dedup;
          pages = i.pages;
          cost = i.cost +. (params.Cost.emit *. i.rows);
          hists = List.filter (fun (n, _) -> List.mem n names) i.hists;
        }
    | P.Project_all (names, inner) ->
        let i = recur inner in
        {
          i with
          cost = i.cost +. (params.Cost.emit *. i.rows);
          hists = List.filter (fun (n, _) -> List.mem n names) i.hists;
        }
    | P.Rename (renames, inner) ->
        let i = recur inner in
        let rename n =
          match List.assoc_opt n renames with Some n' -> n' | None -> n
        in
        { i with hists = List.map (fun (n, h) -> (rename n, h)) i.hists }
    | P.Sort (_, inner) ->
        let i = recur inner in
        let n = i.rows in
        {
          i with
          cost =
            (i.cost +. (params.Cost.sort *. n *. if n <= 1.0 then 0.0 else log n /. log 2.0));
        }
    | P.Natural_join (a, b) ->
        let ia = recur a and ib = recur b in
        let rows = ia.rows *. ib.rows /. Float.max 1.0 (Float.max ia.rows ib.rows) in
        {
          rows;
          pages = ia.pages +. ib.pages;
          cost =
            ia.cost +. ib.cost
            +. (params.Cost.compare *. (ia.rows +. ib.rows))
            +. (params.Cost.emit *. rows);
          hists = ia.hists @ ib.hists;
        }
    | P.Spatial_join { zl; zr; left; right } ->
        let li = recur left and ri = recur right in
        let pairs = join_pairs_est li ~zl ri ~zr in
        {
          rows = pairs;
          pages = li.pages +. ri.pages;
          cost =
            li.cost +. ri.cost
            +. Cost.merge_cost ~params ~left_rows:li.rows ~right_rows:ri.rows
                 ~pairs ();
          hists = li.hists @ ri.hists;
        }
    | P.Product (a, b) ->
        let ia = recur a and ib = recur b in
        let rows = ia.rows *. ib.rows in
        {
          rows;
          pages = ia.pages +. ib.pages;
          cost = ia.cost +. ib.cost +. (params.Cost.emit *. rows);
          hists = ia.hists @ ib.hists;
        }
    | P.Union (a, b) ->
        let ia = recur a and ib = recur b in
        {
          rows = ia.rows +. ib.rows;
          pages = ia.pages +. ib.pages;
          cost = ia.cost +. ib.cost +. (params.Cost.emit *. (ia.rows +. ib.rows));
          hists = [];
        }
  in
  record plan i;
  i

let estimate ?params stats plan =
  let i = info ?params stats (fun _ _ -> ()) plan in
  { est_rows = i.rows; est_pages = i.pages; est_cost = i.cost }

(* Every node's estimate, parents before children. *)
let estimates_table ?params stats plan =
  let tbl = ref [] in
  ignore (info ?params stats (fun p i -> tbl := (p, i) :: !tbl) plan);
  !tbl

(* {1 Join estimates} *)

type join_decision = {
  zl : string;
  zr : string;
  left_rows : float;
  right_rows : float;
  predicted_pairs : float;
  cost_merge : float;
}

let choose_plan ?(params = Cost.default_params) stats plan =
  let plan = P.optimize plan in
  let tbl = List.rev (estimates_table ~params stats plan) in
  let joins =
    List.filter_map
      (fun (node, i) ->
        match node with
        | P.Spatial_join { zl; zr; left; right } ->
            let li = List.assq left tbl and ri = List.assq right tbl in
            Some
              {
                zl;
                zr;
                left_rows = li.rows;
                right_rows = ri.rows;
                predicted_pairs = i.rows;
                cost_merge =
                  Cost.merge_cost ~params ~left_rows:li.rows ~right_rows:ri.rows
                    ~pairs:i.rows ();
              }
        | _ -> None)
      tbl
  in
  (plan, joins)

(* {1 EXPLAIN integration} *)

let render_estimate i =
  let pages =
    if i.pages > 0.0 then Printf.sprintf " pages=%.0f" i.pages else ""
  in
  Printf.sprintf "[cost=%.0f rows=%.0f%s]" i.cost i.rows pages

let cost_column ?params stats root =
  let tbl = estimates_table ?params stats root in
  fun node ->
    match List.find_opt (fun (p, _) -> p == node) tbl with
    | Some (_, i) -> render_estimate i
    | None -> ""

let explain ?params stats plan =
  P.explain ~annotate:(cost_column ?params stats plan) plan

(* {1 Predicted vs. actual} *)

type comparison_row = {
  op : string;
  predicted_rows : float;
  actual_rows : int;
  predicted_pages : float;
  actual_pages : int;
}

let page_accesses (s : SStats.t) = s.SStats.pool_hits + s.SStats.pool_misses

let compare_analysis ?params stats plan (report : P.node_report) =
  let tbl = estimates_table ?params stats plan in
  let est_of node =
    match List.find_opt (fun (p, _) -> p == node) tbl with
    | Some (_, i) -> i
    | None -> { rows = 0.0; pages = 0.0; cost = 0.0; hists = [] }
  in
  let rows = ref [] in
  let rec go plan (r : P.node_report) =
    let i = est_of plan in
    rows :=
      {
        op = r.P.op;
        predicted_rows = i.rows;
        actual_rows = r.P.rows;
        predicted_pages = i.pages;
        actual_pages = page_accesses (P.sum_pages r);
      }
      :: !rows;
    let children_plans =
      match plan with
      | P.Scan _ | P.Scan_stored _ -> []
      | P.Select (_, i) | P.Project (_, i) | P.Project_all (_, i)
      | P.Rename (_, i) | P.Sort (_, i) ->
          [ i ]
      | P.Natural_join (a, b) | P.Product (a, b) | P.Union (a, b) -> [ a; b ]
      | P.Spatial_join { left; right; _ } -> [ left; right ]
    in
    List.iter2 go children_plans r.P.children
  in
  go plan report;
  List.rev !rows

let ratio pred act =
  if act = 0 then if pred <= 0.5 then 1.0 else Float.infinity
  else pred /. float_of_int act

let render_comparison rows =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "predicted vs actual:\n";
  Printf.bprintf buf "  %-44s %10s %8s %6s %10s %8s %6s\n" "operator"
    "rows-pred" "rows-act" "ratio" "pages-pred" "pages-act" "ratio";
  List.iter
    (fun r ->
      let short =
        if String.length r.op <= 44 then r.op else String.sub r.op 0 44
      in
      Printf.bprintf buf "  %-44s %10.0f %8d %6.2f %10.0f %8d %6.2f\n" short
        r.predicted_rows r.actual_rows
        (ratio r.predicted_rows r.actual_rows)
        r.predicted_pages r.actual_pages
        (ratio r.predicted_pages r.actual_pages))
    rows;
  Buffer.contents buf
