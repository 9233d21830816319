module Z = Sqp_zorder
module R = Sqp_relalg
module O = Sqp_optimizer
module Live = Sqp_btree.Live

(* {1 Idempotency dedup window}

   Per client: the encoded response bytes of recently answered keyed
   requests, so a retry of (client_id, request_seq) replays the original
   answer byte for byte instead of re-executing.  Bounded two ways:
   [dedup_window] seqs per client (older keys age out as the client's
   counter advances) and [dedup_max_clients] clients (LRU evicted). *)

let dedup_window = 128

let dedup_max_clients = 256

type dedup_slot = Pending | Done of string

type dedup_client = {
  slots : (int, dedup_slot) Hashtbl.t;
  mutable max_seq : int;
  mutable last_used : int;  (* LRU tick *)
}

type dedup_outcome = Fresh | Replay of string | In_flight | Too_old

type t = {
  space : Z.Space.t;
  shard : (int * int) option;
      (* owned z interval when this catalog is a cluster shard's slice *)
  points_rel : R.Relation.t;  (* "P": id, z, x0..xk — range-search side *)
  relations : (string * R.Plan.t) list;
  lives : (string * int Live.t) list;  (* mutable tables, payload = id *)
  prepared : int Sqp_core.Range_search.prepared Lazy.t;
      (* the z-sorted point sequence every served range merges against *)
  pindex : int Sqp_btree.Zindex.t Lazy.t;
      (* front-coded packed index over the same points: the measured
         entries-per-page that recalibrates the page cost model, built
         by the first [page_estimate] *)
  m : Mutex.t;  (* guards the mutable fields below *)
  mutable stats : O.Stats.t option;
  dedup : (int, dedup_client) Hashtbl.t;
  mutable dedup_tick : int;
}

(* Byte budget of the packed point index's pages.  Small enough that
   the standard workload spans enough pages for the 5.3.1 block model
   to have texture; the compression ratio is budget-independent to
   first order. *)
let pindex_page_bytes = 512

let make ?(lives = []) ?shard ~space ~points ~relations () =
  let points_rel = R.Query.points_relation space points in
  let relations =
    if List.mem_assoc "P" relations then relations
    else relations @ [ ("P", R.Plan.Scan points_rel) ]
  in
  let swapped = lazy (Array.of_list (List.map (fun (id, p) -> (p, id)) points)) in
  let prepared =
    lazy (Sqp_core.Range_search.prepare space (Lazy.force swapped))
  in
  let pindex =
    lazy
      (Sqp_btree.Zindex.of_points ~page_budget:pindex_page_bytes space
         (Lazy.force swapped))
  in
  {
    space;
    shard;
    points_rel;
    relations;
    lives;
    prepared;
    pindex;
    m = Mutex.create ();
    stats = None;
    dedup = Hashtbl.create 16;
    dedup_tick = 0;
  }

let of_seeded ?shard ?(live_empty = false) (wk : Sqp_workload.Seeded.t) =
  let module W = Sqp_workload.Seeded in
  let space = wk.W.space in
  (match shard with
  | Some (zlo, zhi) ->
      if zlo > zhi || zlo < 0 then invalid_arg "Catalog.of_seeded: bad shard range"
  | None -> ());
  (* Points are pixels: each belongs to exactly one shard.  Join-side
     elements carry a z {e interval}: an element goes to every shard its
     interval overlaps (boundary-element replication), which is what
     lets a scatter-gather join find a pair whose containing element
     spans a shard cut — the containing element is present wherever the
     contained one lives. *)
  let point_in_shard p =
    match shard with
    | None -> true
    | Some (zlo, zhi) ->
        let z = Shard_map.z_of_point space p in
        zlo <= z && z <= zhi
  in
  let element_in_shard e =
    match shard with
    | None -> true
    | Some (zlo, zhi) ->
        let lo, hi = Z.Zrange.of_element space e in
        lo <= zhi && hi >= zlo
  in
  let points =
    List.filter
      (fun (_, p) -> point_in_shard p)
      (Array.to_list (Array.mapi (fun i p -> (i, p)) wk.W.points))
  in
  let restrict rel =
    match shard with
    | None -> rel
    | Some _ ->
        let schema = R.Relation.schema rel in
        R.Relation.make ~name:(R.Relation.name rel) schema
          (List.filter
             (fun tu ->
               element_in_shard (R.Value.to_zval (R.Relation.get tu schema "z")))
             (R.Relation.tuples rel))
  in
  let stored name renames objects =
    R.Stored.store
      (R.Ops.rename renames
         (restrict
            (R.Query.decompose_relation ~name ~options:wk.W.decompose_options
               space objects)))
  in
  let r = stored "R" [ ("id", "rid"); ("z", "zr") ] wk.W.left_objects in
  let s = stored "S" [ ("id", "sid"); ("z", "zs") ] wk.W.right_objects in
  (* "L": the live ingest table, pre-seeded with the same points as "P"
     (payload = id) so mutation traffic has something to land on.
     [live_empty] starts it empty instead — a rebalance target begins
     with no live entries and receives the moving range as a stream. *)
  let live =
    Live.create ~encode:string_of_int ~decode:int_of_string space
  in
  if not live_empty then
    ignore
      (Live.apply live (List.map (fun (id, p) -> Live.Insert (p, id)) points));
  make ~lives:[ ("L", live) ] ?shard ~space ~points
    ~relations:[ ("R", R.Plan.Scan_stored r); ("S", R.Plan.Scan_stored s) ]
    ()

let space t = t.space

let shard_range t = t.shard

let names t = List.sort compare (List.map fst t.relations)

let resolve t name = List.assoc_opt name t.relations

let live_names t = List.sort compare (List.map fst t.lives)

let live t name = List.assoc_opt name t.lives

(* Sessions share the catalog, and forcing a lazy member while another
   thread or domain is still computing it raises [Lazy.Undefined] (and
   [Lazy.is_val] cannot tell "forced" from "being forced").  So every
   force of [prepared] and [pindex], and through them of [swapped], runs
   under the catalog mutex: held for the one-time build, then for a tag
   test. *)
let force t l = Mutex.protect t.m (fun () -> Lazy.force l)

let prepared_points t = force t t.prepared

let point_index t = force t t.pindex

(* {1 Statistics and caches} *)

let stats t =
  Mutex.lock t.m;
  let s = t.stats in
  Mutex.unlock t.m;
  s

let analyze t =
  let lives = List.map (fun (name, lv) -> (name, Live.length lv)) t.lives in
  let st = O.Stats.analyze ~lives ~space:t.space t.relations in
  (* The packed point index is not built here: only [page_estimate]
     reads it, and forces it on first use. *)
  Mutex.lock t.m;
  t.stats <- Some st;
  Mutex.unlock t.m;
  st

(* {1 Dedup window} *)

let dedup_begin t ~client_id ~seq =
  Mutex.lock t.m;
  t.dedup_tick <- t.dedup_tick + 1;
  let entry =
    match Hashtbl.find_opt t.dedup client_id with
    | Some e -> e
    | None ->
        if Hashtbl.length t.dedup >= dedup_max_clients then begin
          (* LRU eviction: linear scan is fine at 256 clients. *)
          let victim =
            Hashtbl.fold
              (fun id e acc ->
                match acc with
                | Some (_, lu) when lu <= e.last_used -> acc
                | _ -> Some (id, e.last_used))
              t.dedup None
          in
          match victim with
          | Some (id, _) -> Hashtbl.remove t.dedup id
          | None -> ()
        end;
        let e = { slots = Hashtbl.create 16; max_seq = 0; last_used = 0 } in
        Hashtbl.add t.dedup client_id e;
        e
  in
  entry.last_used <- t.dedup_tick;
  let outcome =
    if entry.max_seq - seq >= dedup_window then Too_old
    else
      match Hashtbl.find_opt entry.slots seq with
      | Some Pending -> In_flight
      | Some (Done payload) -> Replay payload
      | None ->
          Hashtbl.replace entry.slots seq Pending;
          if seq > entry.max_seq then begin
            entry.max_seq <- seq;
            let floor = entry.max_seq - dedup_window in
            let old =
              Hashtbl.fold
                (fun s _ acc -> if s <= floor then s :: acc else acc)
                entry.slots []
            in
            List.iter (Hashtbl.remove entry.slots) old
          end;
          Fresh
  in
  Mutex.unlock t.m;
  outcome

let dedup_commit t ~client_id ~seq payload =
  Mutex.lock t.m;
  (match Hashtbl.find_opt t.dedup client_id with
  | Some entry -> Hashtbl.replace entry.slots seq (Done payload)
  | None -> ());
  Mutex.unlock t.m

let dedup_abort t ~client_id ~seq =
  Mutex.lock t.m;
  (match Hashtbl.find_opt t.dedup client_id with
  | Some entry -> (
      match Hashtbl.find_opt entry.slots seq with
      | Some Pending -> Hashtbl.remove entry.slots seq
      | Some (Done _) | None -> ())
  | None -> ());
  Mutex.unlock t.m

(* {1 Degraded-mode recovery} *)

let recover_lives t =
  List.filter_map
    (fun (name, lv) ->
      match Live.recover lv with
      | () -> None
      | exception e -> Some (name, e))
    t.lives

let point_histogram t =
  match stats t with
  | None -> None
  | Some st -> (
      match O.Stats.find st "P" with
      | Some rs -> (
          match List.assoc_opt "z" rs.O.Stats.z_columns with
          | Some h -> Some (st, h)
          | None -> None)
      | None -> None)

(* {1 Plans} *)

let coords t = List.init (Z.Space.dims t.space) (fun i -> Printf.sprintf "x%d" i)

let refine_pred t ~lo ~hi =
  let cs = coords t in
  R.Plan.pred
    (Printf.sprintf "refine box [%s]"
       (String.concat "; "
          (List.mapi (fun i c -> Printf.sprintf "%d<=%s<=%d" lo.(i) c hi.(i)) cs)))
    cs
    (fun tu schema ->
      let ok = ref true in
      List.iteri
        (fun i c ->
          let v = R.Value.to_int (R.Relation.get tu schema c) in
          if v < lo.(i) || v > hi.(i) then ok := false)
        cs;
      !ok)

(* The cover of the box at the given decompose budget, as the join's
   right-hand relation (attribute "zb"). *)
let cover_relation t ?max_level ~lo ~hi () =
  let options = { Z.Decompose.default_options with Z.Decompose.max_level } in
  let elements = Z.Decompose.decompose_box ~options t.space ~lo ~hi in
  R.Relation.make ~name:"B"
    (R.Schema.make [ ("zb", R.Value.TZval) ])
    (List.map (fun e -> [| R.Value.Zval e |]) elements)

let range_decision t ~lo ~hi =
  match point_histogram t with
  | None -> None
  | Some (_, hist) ->
      let alts =
        O.Cost.range_alternatives ~space:t.space ~hist
          ~points:(R.Relation.cardinality t.points_rel)
          ~lo ~hi ()
      in
      Some alts

(* The cheapest decompose budget under the {e plan executor's} cost
   function (method-independent: the plan's join does not skip). *)
let best_plan_budget t alts =
  let points = R.Relation.cardinality t.points_rel in
  let seen = Hashtbl.create 8 in
  List.fold_left
    (fun best (a : O.Cost.range_alternative) ->
      if Hashtbl.mem seen a.O.Cost.max_level then best
      else begin
        Hashtbl.add seen a.O.Cost.max_level ();
        let c = O.Cost.plan_path_cost ~points a in
        match best with
        | Some (_, bc) when bc <= c -> best
        | _ -> Some (a, c)
      end)
    None alts

(* {1 Page cost recalibration}

   The paper's 5.3.1 block model predicts pages touched from the page
   count; front-coded pages hold more entries than the fixed-width
   assumption, so the calibrated prediction uses the density measured
   on the packed point index instead. *)

type page_estimate = {
  rows : int;
  entries_per_page : float;
  compression_ratio : float;
  fixed_pages : int;
  compressed_pages : int;
  fixed_predicted : float;
  learned_predicted : float;
}

let page_estimate t ~lo ~hi =
  match stats t with
  | None -> None  (* the page model is priced only once ANALYZE has run *)
  | Some _ ->
      let idx = point_index t in
      let rows = Sqp_btree.Zindex.length idx in
      let epp = Sqp_btree.Zindex.avg_leaf_entries idx in
      let ratio, fixed_per_page =
        match Sqp_btree.Zindex.compression_stats idx with
        | Some c ->
            ( c.Sqp_btree.Zindex.ratio,
              c.Sqp_btree.Zindex.fixed_entries_per_leaf )
        | None -> (1.0, Float.max 1.0 epp)
      in
      let fixed_pages =
        if rows = 0 then 0
        else
          max 1
            (int_of_float (ceil (float_of_int rows /. Float.max 1.0 fixed_per_page)))
      in
      let fixed_predicted =
        O.Cost.predicted_range_pages ~n_pages:fixed_pages ~space:t.space ~lo
          ~hi ()
      in
      let learned_predicted =
        O.Cost.predicted_range_pages ~entries_per_page:epp ~rows
          ~n_pages:fixed_pages ~space:t.space ~lo ~hi ()
      in
      Some
        {
          rows;
          entries_per_page = epp;
          compression_ratio = ratio;
          fixed_pages;
          compressed_pages = Sqp_btree.Zindex.data_page_count idx;
          fixed_predicted;
          learned_predicted;
        }

type range_access =
  | Direct of O.Cost.range_alternative
  | Planned

let range_access t ~lo ~hi =
  match range_decision t ~lo ~hi with
  | None -> Planned
  | Some alts -> (
      (* [alts] is sorted by ascending direct-kernel cost, so the first
         exact entry is the cheapest exact method. *)
      let exact =
        List.find_opt (fun a -> a.O.Cost.max_level = None) alts
      in
      match (exact, best_plan_budget t alts) with
      | Some e, Some (_, plan_cost) when e.O.Cost.cost <= plan_cost -> Direct e
      | Some e, None -> Direct e
      | _ -> Planned)

let range_plan t ~lo ~hi =
  ignore (Protocol.range_box t.space ~lo ~hi);
  let mk ?max_level ~refine () =
    let b = cover_relation t ?max_level ~lo ~hi () in
    let join =
      R.Plan.Spatial_join
        {
          zl = "z";
          zr = "zb";
          left = R.Plan.Scan t.points_rel;
          right = R.Plan.Scan b;
        }
    in
    let body = if refine then R.Plan.Select (refine_pred t ~lo ~hi, join) else join in
    R.Plan.Project (coords t, body)
  in
  match range_decision t ~lo ~hi with
  | None -> mk ~refine:false ()  (* no statistics: pixel-exact, as ever *)
  | Some alts -> (
      match best_plan_budget t alts with
      | None -> mk ~refine:false ()
      | Some (best, _) ->
          mk ?max_level:best.O.Cost.max_level ~refine:best.O.Cost.needs_refine ())

let overlap_plan t =
  match (resolve t "R", resolve t "S") with
  | Some r, Some s ->
      R.Plan.Project
        ( [ "rid"; "sid" ],
          R.Plan.Spatial_join { zl = "zr"; zr = "zs"; left = r; right = s } )
  | _ -> invalid_arg "Catalog.overlap_plan: catalog lacks R or S"

let health_detail t =
  let buf = Buffer.create 128 in
  let healthy = ref true in
  Printf.bprintf buf "space: %dd, side %d; relations:" (Z.Space.dims t.space)
    (Z.Space.side t.space);
  List.iter
    (fun name ->
      match resolve t name with
      | None -> ()
      | Some plan -> (
          match R.Plan.schema plan with
          | schema ->
              Printf.bprintf buf " %s(%s)~%.0f" name
                (String.concat "," (R.Schema.names schema))
                (R.Plan.estimated_rows plan)
          | exception _ ->
              healthy := false;
              Printf.bprintf buf " %s(BROKEN SCHEMA)" name))
    (names t);
  List.iter
    (fun name ->
      match live t name with
      | None -> ()
      | Some lv ->
          let poisoned = not (Live.durable_ok lv) in
          if poisoned then healthy := false;
          Printf.bprintf buf " %s(live%s)=%d@%d" name
            (if poisoned then ",store POISONED" else "")
            (Live.length lv) (Live.seq lv))
    (live_names t);
  (match stats t with
  | None -> Printf.bprintf buf "; stats: none (run analyze)"
  | Some st ->
      Printf.bprintf buf "; stats: %d relations analyzed"
        (List.length st.O.Stats.relations));
  (!healthy, Buffer.contents buf)
