type pred = {
  description : string;
  attrs : string list;
  test : Relation.tuple -> Schema.t -> bool;
}

let pred description attrs test = { description; attrs; test }

let attr_equals attr value =
  {
    description = Printf.sprintf "%s = %s" attr (Format.asprintf "%a" Value.pp value);
    attrs = [ attr ];
    test = (fun tu schema -> Value.equal (Relation.get tu schema attr) value);
  }

let attr_between attr lo hi =
  {
    description =
      Printf.sprintf "%s between %s and %s" attr
        (Format.asprintf "%a" Value.pp lo)
        (Format.asprintf "%a" Value.pp hi);
    attrs = [ attr ];
    test =
      (fun tu schema ->
        let v = Relation.get tu schema attr in
        Value.compare lo v <= 0 && Value.compare v hi <= 0);
  }

type t =
  | Scan of Relation.t
  | Scan_stored of Stored.t
  | Select of pred * t
  | Project of string list * t
  | Project_all of string list * t
  | Rename of (string * string) list * t
  | Sort of string list * t
  | Natural_join of t * t
  | Spatial_join of { zl : string; zr : string; left : t; right : t }
  | Product of t * t
  | Union of t * t

let rec schema = function
  | Scan r -> Relation.schema r
  | Scan_stored st -> Stored.schema st
  | Select (_, p) -> schema p
  | Project (names, p) | Project_all (names, p) -> Schema.project (schema p) names
  | Rename (renames, p) -> Schema.rename (schema p) renames
  | Sort (_, p) -> schema p
  | Natural_join (a, b) ->
      let sa = schema a and sb = schema b in
      let common = Schema.common sa sb in
      let keep = List.filter (fun n -> not (List.mem n common)) (Schema.names sb) in
      Schema.concat sa (Schema.make (List.map (fun n -> (n, Schema.ty sb n)) keep))
  | Spatial_join { left; right; _ } | Product (left, right) ->
      Schema.concat (schema left) (schema right)
  | Union (a, _) -> schema a

let rec estimated_rows = function
  | Scan r -> float_of_int (Relation.cardinality r)
  | Scan_stored st -> float_of_int (Stored.cardinality st)
  | Select (_, p) -> estimated_rows p /. 3.0
  | Project (_, p) -> estimated_rows p *. 0.9
  | Project_all (_, p) | Rename (_, p) | Sort (_, p) -> estimated_rows p
  | Natural_join (a, b) ->
      let ra = estimated_rows a and rb = estimated_rows b in
      ra *. rb /. Float.max 1.0 (Float.max ra rb)
  | Spatial_join { left; right; _ } ->
      (* Elements per object pair up rarely; assume ~2 witnesses per
         overlapping pair and 10% overlapping pairs. *)
      0.2 *. Float.max (estimated_rows left) (estimated_rows right)
  | Product (a, b) -> estimated_rows a *. estimated_rows b
  | Union (a, b) -> estimated_rows a +. estimated_rows b

(* {2 Optimizer} *)

let pred_applies_to s p = List.for_all (Schema.mem s) p.attrs

let rename_pred renames p =
  (* Moving a Select below [Rename renames]: rewrite its attributes from
     the renamed (outer) names back to the original (inner) names. *)
  let back = List.map (fun (old_name, fresh) -> (fresh, old_name)) renames in
  let rewrite n = match List.assoc_opt n back with Some o -> o | None -> n in
  {
    description = p.description;
    attrs = List.map rewrite p.attrs;
    test =
      (fun tu inner_schema ->
        (* Evaluate against the renamed view of the inner schema. *)
        p.test tu (Schema.rename inner_schema renames));
  }

let rec push_select p plan =
  match plan with
  | Rename (renames, inner) -> Rename (renames, push_select (rename_pred renames p) inner)
  | Sort (keys, inner) -> Sort (keys, push_select p inner)
  | Product (a, b) when pred_applies_to (schema a) p -> Product (push_select p a, b)
  | Product (a, b) when pred_applies_to (schema b) p -> Product (a, push_select p b)
  | Natural_join (a, b) when pred_applies_to (schema a) p ->
      Natural_join (push_select p a, b)
  | Natural_join (a, b) when pred_applies_to (schema b) p ->
      Natural_join (a, push_select p b)
  | Spatial_join ({ left; _ } as j) when pred_applies_to (schema left) p ->
      Spatial_join { j with left = push_select p left }
  | Spatial_join ({ right; _ } as j) when pred_applies_to (schema right) p ->
      Spatial_join { j with right = push_select p right }
  | Union (a, b) -> Union (push_select p a, push_select p b)
  | Scan _ | Scan_stored _ | Select _ | Project _ | Project_all _
  | Product _ | Natural_join _ | Spatial_join _ ->
      Select (p, plan)

let rec optimize plan =
  match plan with
  | Scan _ | Scan_stored _ -> plan
  | Select (p, inner) -> push_select p (optimize inner)
  | Project (names, inner) -> Project (names, optimize inner)
  | Project_all (names, inner) -> Project_all (names, optimize inner)
  | Rename (renames, inner) -> Rename (renames, optimize inner)
  | Sort (keys, inner) -> (
      match optimize inner with
      | Sort (_, deeper) -> Sort (keys, deeper) (* outer sort wins *)
      | opt -> Sort (keys, opt))
  | Natural_join (a, b) -> Natural_join (optimize a, optimize b)
  | Spatial_join j -> Spatial_join { j with left = optimize j.left; right = optimize j.right }
  | Product (a, b) -> Product (optimize a, optimize b)
  | Union (a, b) -> Union (optimize a, optimize b)

(* {2 Execution} *)

let rec run plan =
  match plan with
  | Scan r -> r
  | Scan_stored st -> Stored.scan st
  | Select (p, inner) ->
      let r = run inner in
      let s = Relation.schema r in
      Ops.select (fun tu -> p.test tu s) r
  | Project (names, inner) -> Ops.project names (run inner)
  | Project_all (names, inner) -> Ops.project_all names (run inner)
  | Rename (renames, inner) -> Ops.rename renames (run inner)
  | Sort (keys, inner) -> Ops.sort_by keys (run inner)
  | Natural_join (a, b) -> Ops.natural_join (run a) (run b)
  | Spatial_join { zl; zr; left; right } ->
      let l = run left and r = run right in
      fst (Spatial_join.merge l ~zr:zl r ~zs:zr)
  | Product (a, b) -> Ops.product (run a) (run b)
  | Union (a, b) -> Ops.union (run a) (run b)

(* {2 Explain} *)

let explain plan =
  let buf = Buffer.create 256 in
  let rec go depth plan =
    let rows = estimated_rows plan in
    let line depth fmt =
      Printf.ksprintf
        (fun s ->
          Buffer.add_string buf (String.make (2 * depth) ' ');
          Buffer.add_string buf s;
          Buffer.add_char buf '\n')
        fmt
    in
    (match plan with
    | Scan r ->
        line depth "scan %s %s (~%.0f rows)"
          (match Relation.name r with "" -> "<anon>" | n -> n)
          (Format.asprintf "%a" Schema.pp (Relation.schema r))
          rows
    | Scan_stored st ->
        line depth "scan stored %s %s (%d pages, ~%.0f rows)"
          (match Stored.name st with "" -> "<anon>" | n -> n)
          (Format.asprintf "%a" Schema.pp (Stored.schema st))
          (Stored.pages st) rows
    | Select (p, _) -> line depth "select [%s] (~%.0f rows)" p.description rows
    | Project (names, _) -> line depth "project distinct {%s} (~%.0f rows)" (String.concat ", " names) rows
    | Project_all (names, _) -> line depth "project {%s} (~%.0f rows)" (String.concat ", " names) rows
    | Rename (renames, _) ->
        line depth "rename {%s}"
          (String.concat ", " (List.map (fun (o, n) -> o ^ " -> " ^ n) renames))
    | Sort (keys, _) -> line depth "sort by {%s}" (String.concat ", " keys)
    | Natural_join (_, _) -> line depth "natural join (~%.0f rows)" rows
    | Spatial_join { zl; zr; _ } ->
        line depth "spatial join %s <> %s via z-merge (~%.0f rows)" zl zr rows
    | Product _ -> line depth "product (~%.0f rows)" rows
    | Union _ -> line depth "union (~%.0f rows)" rows);
    match plan with
    | Scan _ | Scan_stored _ -> ()
    | Select (_, i) | Project (_, i) | Project_all (_, i) | Rename (_, i) | Sort (_, i) ->
        go (depth + 1) i
    | Natural_join (a, b) | Product (a, b) | Union (a, b) ->
        go (depth + 1) a;
        go (depth + 1) b
    | Spatial_join { left; right; _ } ->
        go (depth + 1) left;
        go (depth + 1) right
  in
  go 0 plan;
  Buffer.contents buf

(* {2 EXPLAIN ANALYZE} *)

module Stats = Sqp_storage.Stats

type node_report = {
  op : string;
  rows : int;
  elapsed : float;
  pages : Stats.t;
  node_attrs : (string * int) list;
  children : node_report list;
}

type analysis = {
  result : Relation.t;
  report : node_report;
  total_pages : Stats.t;
  wall_seconds : float;
}

(* The live Stats counters reachable from the plan's stored scans,
   deduplicated physically (two Scan_stored of the same relation share
   one disk, hence one counter). *)
let rec stats_sources acc = function
  | Scan_stored st ->
      let s = Stored.stats st in
      if List.memq s acc then acc else s :: acc
  | Scan _ -> acc
  | Select (_, i) | Project (_, i) | Project_all (_, i) | Rename (_, i) | Sort (_, i) ->
      stats_sources acc i
  | Natural_join (a, b) | Product (a, b) | Union (a, b) ->
      stats_sources (stats_sources acc a) b
  | Spatial_join { left; right; _ } -> stats_sources (stats_sources acc left) right

let delta sources befores =
  Stats.sum
    (List.map2
       (fun live before -> Stats.diff ~after:(Stats.snapshot live) ~before)
       sources befores)

let sum_pages report =
  let rec go acc r = List.fold_left go (Stats.add acc r.pages) r.children in
  go (Stats.create ()) report

let join_attrs (s : Spatial_join.stats) =
  [
    ("pairs", s.Spatial_join.pairs);
    ("comparisons", s.Spatial_join.comparisons);
    ("sorted_items", s.Spatial_join.sorted_items);
    ("max_stack", s.Spatial_join.max_stack);
  ]

let run_analyze plan =
  let sources = stats_sources [] plan in
  let tracer = Sqp_obs.Trace.global () in
  let now = Unix.gettimeofday in
  (* Children run (and are charged) before their parent's own work, so
     each node's [pages]/[elapsed] are exclusive: tree sums equal the
     run's totals exactly. *)
  let node op children f : Relation.t * node_report =
    let befores = List.map Stats.snapshot sources in
    Sqp_obs.Trace.span_begin tracer ("plan." ^ op);
    let t0 = now () in
    let rel, node_attrs = f () in
    let elapsed = now () -. t0 in
    Sqp_obs.Trace.span_end
      ~attrs:(fun () ->
        ("rows", Sqp_obs.Trace.Int (Relation.cardinality rel))
        :: List.map (fun (k, v) -> (k, Sqp_obs.Trace.Int v)) node_attrs)
      tracer;
    let pages = delta sources befores in
    ( rel,
      {
        op;
        rows = Relation.cardinality rel;
        elapsed;
        pages;
        node_attrs;
        children;
      } )
  in
  let simple op children f = node op children (fun () -> (f (), [])) in
  let rec go plan =
    match plan with
    | Scan r ->
        simple
          (Printf.sprintf "scan %s"
             (match Relation.name r with "" -> "<anon>" | n -> n))
          []
          (fun () -> r)
    | Scan_stored st ->
        node
          (Printf.sprintf "scan stored %s"
             (match Stored.name st with "" -> "<anon>" | n -> n))
          []
          (fun () -> (Stored.scan st, [ ("data_pages", Stored.pages st) ]))
    | Select (p, inner) ->
        let rel, child = go inner in
        let s = Relation.schema rel in
        simple
          (Printf.sprintf "select [%s]" p.description)
          [ child ]
          (fun () -> Ops.select (fun tu -> p.test tu s) rel)
    | Project (names, inner) ->
        let rel, child = go inner in
        simple
          (Printf.sprintf "project distinct {%s}" (String.concat ", " names))
          [ child ]
          (fun () -> Ops.project names rel)
    | Project_all (names, inner) ->
        let rel, child = go inner in
        simple
          (Printf.sprintf "project {%s}" (String.concat ", " names))
          [ child ]
          (fun () -> Ops.project_all names rel)
    | Rename (renames, inner) ->
        let rel, child = go inner in
        simple
          (Printf.sprintf "rename {%s}"
             (String.concat ", " (List.map (fun (o, n) -> o ^ " -> " ^ n) renames)))
          [ child ]
          (fun () -> Ops.rename renames rel)
    | Sort (keys, inner) ->
        let rel, child = go inner in
        simple
          (Printf.sprintf "sort by {%s}" (String.concat ", " keys))
          [ child ]
          (fun () -> Ops.sort_by keys rel)
    | Natural_join (a, b) ->
        let ra, ca = go a in
        let rb, cb = go b in
        simple "natural join" [ ca; cb ] (fun () -> Ops.natural_join ra rb)
    | Product (a, b) ->
        let ra, ca = go a in
        let rb, cb = go b in
        simple "product" [ ca; cb ] (fun () -> Ops.product ra rb)
    | Union (a, b) ->
        let ra, ca = go a in
        let rb, cb = go b in
        simple "union" [ ca; cb ] (fun () -> Ops.union ra rb)
    | Spatial_join { zl; zr; left; right } ->
        let rl, cl = go left in
        let rr, cr = go right in
        node
          (Printf.sprintf "spatial join %s <> %s via z-merge" zl zr)
          [ cl; cr ]
          (fun () ->
            let joined, s = Spatial_join.merge rl ~zr:zl rr ~zs:zr in
            (joined, join_attrs s))
  in
  let befores = List.map Stats.snapshot sources in
  Sqp_obs.Trace.span_begin tracer "plan.run_analyze";
  let t0 = now () in
  let result, report = go plan in
  let wall_seconds = now () -. t0 in
  Sqp_obs.Trace.span_end
    ~attrs:(fun () -> [ ("rows", Sqp_obs.Trace.Int (Relation.cardinality result)) ])
    tracer;
  let total_pages = delta sources befores in
  { result; report; total_pages; wall_seconds }

let render_analysis a =
  let buf = Buffer.create 1024 in
  let line depth fmt =
    Printf.ksprintf
      (fun s ->
        Buffer.add_string buf (String.make (2 * depth) ' ');
        Buffer.add_string buf s;
        Buffer.add_char buf '\n')
      fmt
  in
  let pages_str (p : Stats.t) =
    if
      p.Stats.physical_reads = 0 && p.Stats.physical_writes = 0
      && p.Stats.pool_hits = 0 && p.Stats.pool_misses = 0
    then ""
    else
      Printf.sprintf ", pages: %dr/%dw (pool %dh/%dm)" p.Stats.physical_reads
        p.Stats.physical_writes p.Stats.pool_hits p.Stats.pool_misses
  in
  line 0 "EXPLAIN ANALYZE (wall %.3f ms, total pages: %dr/%dw, pool %dh/%dm)"
    (a.wall_seconds *. 1e3)
    a.total_pages.Stats.physical_reads a.total_pages.Stats.physical_writes
    a.total_pages.Stats.pool_hits a.total_pages.Stats.pool_misses;
  let rec go depth r =
    let attrs =
      String.concat ""
        (List.map (fun (k, v) -> Printf.sprintf ", %s=%d" k v) r.node_attrs)
    in
    line depth "%s (rows=%d, %.3f ms%s%s)" r.op r.rows (r.elapsed *. 1e3) attrs
      (pages_str r.pages);
    List.iter (go (depth + 1)) r.children
  in
  go 0 a.report;
  Buffer.contents buf

let explain_analyze plan = render_analysis (run_analyze plan)
