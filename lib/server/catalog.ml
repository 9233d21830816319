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
  tree : int Live.snapshot;
      (* the points in z order, frozen: every served range reads them *)
  points_rel : R.Relation.t;  (* "P": id, z, x0..xk — wire plans' side *)
  relations : (string * R.Plan.t) list;
  lives : (string * int Live.t) list;  (* mutable tables, payload = id *)
  m : Mutex.t;  (* guards the mutable fields below *)
  dedup : (int, dedup_client) Hashtbl.t;
  mutable dedup_tick : int;
}

(* The points bulk-loaded into a table keyed by z (payload = id), whose
   first snapshot is the catalog's tree. *)
let load space points =
  Live.of_entries ~encode:string_of_int ~decode:int_of_string space
    (Array.of_list (List.map (fun (id, p) -> (p, id)) points))

let build ~lives ?shard ~space ~points ~tree ~relations () =
  let points_rel = R.Query.points_relation space points in
  {
    space;
    shard;
    tree;
    points_rel;
    relations = relations @ [ ("P", R.Plan.Scan points_rel) ];
    lives;
    m = Mutex.create ();
    dedup = Hashtbl.create 16;
    dedup_tick = 0;
  }

let make ?(lives = []) ?shard ~space ~points ~relations () =
  build ~lives ?shard ~space ~points ~tree:(Live.snapshot (load space points)) ~relations ()

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
     (payload = id) so mutation traffic has something to land on: the
     table the points are loaded into, so "L" and the catalog's tree
     share one root until L's writes path-copy away from it.
     [live_empty] starts it empty instead — a rebalance target begins
     with no live entries and receives the moving range as a stream. *)
  let loaded = load space points in
  let live =
    if live_empty then Live.create ~encode:string_of_int ~decode:int_of_string space
    else loaded
  in
  build ~lives:[ ("L", live) ] ?shard ~space ~points ~tree:(Live.snapshot loaded)
    ~relations:[ ("R", R.Plan.Scan_stored r); ("S", R.Plan.Scan_stored s) ]
    ()

let space t = t.space

let shard_range t = t.shard

let names t = List.sort compare (List.map fst t.relations)

let resolve t name = List.assoc_opt name t.relations

let live_names t = List.sort compare (List.map fst t.lives)

let live t name = List.assoc_opt name t.lives

let point_tree t = t.tree

let prepared_points t =
  Sqp_core.Range_search.prepare t.space (Array.of_list (Live.snapshot_entries t.tree))

let analyze _ = ()

let stats _ = None

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

(* {1 Plans} *)

type range_access =
  | Direct of O.Cost.range_alternative
  | Planned

let range_access t ~lo ~hi =
  ignore (Protocol.range_box t.space ~lo ~hi);
  Direct { O.Cost.method_ = O.Cost.Skip }

let range_plan t ~lo ~hi =
  ignore (Protocol.range_box t.space ~lo ~hi);
  (* The box's pixel-exact cover, as the join's right-hand relation. *)
  let cover =
    R.Relation.make ~name:"B"
      (R.Schema.make [ ("zb", R.Value.TZval) ])
      (List.map
         (fun e -> [| R.Value.Zval e |])
         (Z.Decompose.decompose_box t.space ~lo ~hi))
  in
  R.Plan.Project
    ( List.init (Z.Space.dims t.space) (Printf.sprintf "x%d"),
      R.Plan.Spatial_join
        { zl = "z"; zr = "zb"; left = R.Plan.Scan t.points_rel; right = R.Plan.Scan cover } )

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
  (!healthy, Buffer.contents buf)
