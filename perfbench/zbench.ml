(* One workload of the seeded benchmark.

     zbench.exe --workload W --seed N --seconds S --trace 0|1
                --sqp PATH --out DIR [--rev REV]

   Serving workloads drive the shipped binary ([sqp serve], [sqp route]
   over [sqp serve --shard I/2]) in processes of their own, from at most
   two client connections in closed loops; embedded_range calls
   [Zindex.range_search] in this process.  The last stdout line is the
   JSON result; every answer is checked after the timed window.  With
   --trace 1 the run also replays the same inputs through the engine's
   public functions under a private tracer and prints the per-layer
   metrics instead of the end-to-end ones.  README.md documents the
   workloads, the metrics and what each should move. *)

module B = Benchlib
module W = Sqp_workload
module Srv = Sqp_server
module P = Sqp_server.Protocol
module Cat = Sqp_server.Catalog
module Z = Sqp_zorder
module G = Sqp_geom
module R = Sqp_relalg
module T = Sqp_obs.Trace
module Zi = Sqp_btree.Zindex
module Live = Sqp_btree.Live
module Cost = Sqp_optimizer.Cost

let now = Unix.gettimeofday

(* {1 Sizes}

   The catalog is the shipped seeded one at explicit sizes, so a change
   of [sqp serve]'s defaults does not change the benchmark.

   Boxes take the paper's Section 5.3.2 shapes: volumes 1/64, 1/16 and
   1/4 of the space and aspects 1/16 to 16.  New boxes draw both at
   random; the 24 hot boxes cycle through the 21 combinations, so the
   cost of the hot set does not hang on which shapes a seed drew, only
   where they lie.

   The decompose cache holds 512 boxes.  With statistics present the
   optimizer adds about 5 cache keys per box, so the hot set needs about
   120 entries and each hot box comes back after about 60 range
   requests, which bring about 180 keys of new boxes: it stays cached,
   while the new boxes, most of the stream, overflow the cache. *)

let n_points = 5000
let n_objects = 48
let hot_set = 24
let hot_share = 0.4
let join_share = 0.1
let volumes = [ 1. /. 64.; 1. /. 16.; 1. /. 4. ]
let batch_size = 32
let delete_size = 16
let delete_every = 4
let recent_cap = 256
let replay_ops = 200
let plan_range_boxes = 40

type workload = Serve_read | Serve_ingest | Cluster_read | Embedded_range

let workload_of_string = function
  | "serve_read" -> Some Serve_read
  | "serve_ingest" -> Some Serve_ingest
  | "cluster_read" -> Some Cluster_read
  | "embedded_range" -> Some Embedded_range
  | _ -> None

let workload_name = function
  | Serve_read -> "serve_read"
  | Serve_ingest -> "serve_ingest"
  | Cluster_read -> "cluster_read"
  | Embedded_range -> "embedded_range"

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("zbench: " ^ s); exit 2) fmt

(* {1 Inputs} *)

let wk = lazy (W.Seeded.standard ~n_points ~n_objects ())
let space () = (Lazy.force wk).W.Seeded.space
let side () = W.Seeded.side (Lazy.force wk)

let aspects = W.Querygen.paper_aspects

(* The [i]-th shape of the volume x aspect grid. *)
let shape i =
  (List.nth volumes (i mod List.length volumes), List.nth aspects (i mod List.length aspects))

let shape_box rng (volume_fraction, aspect) =
  W.Querygen.random_box rng ~side:(side ()) { W.Querygen.volume_fraction; aspect }

let new_box rng =
  let v = List.nth volumes (W.Rng.int rng (List.length volumes)) in
  shape_box rng (v, List.nth aspects (W.Rng.int rng (List.length aspects)))

type read = Range of G.Box.t * int  (** box, hot-set index or -1 *) | Join

let next_read rng ~joins hot =
  if joins && W.Rng.float rng < join_share then Join
  else if W.Rng.float rng < hot_share then
    let h = W.Rng.int rng hot_set in
    Range (hot.(h), h)
  else Range (new_box rng, -1)

(* The canonical overlap join, as clients send it. *)
let join_wire_plan =
  R.Wire.(
    Project
      ( [ "rid"; "sid" ],
        Spatial_join { zl = "zr"; zr = "zs"; left = Scan "R"; right = Scan "S" } ))

(* {1 Records} *)

type kind = New_range | Warm_range | Join_q | Write

type batch = Ins of (int array * int) list | Del of int array list

type record = {
  kind : kind;
  id : int;
  t0 : float;
  lat : float;
  box : G.Box.t option;
  batch : batch option;
  answer : (int * int, string) result;
      (** rows and an order-free digest of them, or the error *)
}

let op_ids = Atomic.make 0

let timed tracer name f =
  let id = Atomic.fetch_and_add op_ids 1 in
  let t0 = now () in
  let r =
    match tracer with
    | None -> f ()
    | Some tr -> T.with_span tr name ~attrs:(fun () -> [ ("op", T.Int id) ]) f
  in
  (id, t0, now () -. t0, r)

let digest pairs =
  List.fold_left (fun (n, s) p -> (n + 1, s + Hashtbl.hash p)) (0, 0) pairs

let int_col tu i = R.Value.to_int tu.(i)

let coords_of rel ~first =
  List.map (fun tu -> (int_col tu first, int_col tu (first + 1))) (R.Relation.tuples rel)

let join_pairs rel =
  let s = R.Relation.schema rel in
  List.sort_uniq compare
    (List.map
       (fun tu ->
         ( R.Value.to_int (R.Relation.get tu s "rid"),
           R.Value.to_int (R.Relation.get tu s "sid") ))
       (R.Relation.tuples rel))

(* One closed-loop reader: the next request goes out when the previous
   answer is back.  A hot box counts as warm only once some connection
   has already had it answered. *)
let reader_loop ~rng ~joins ~hot ~seen ~deadline ~tracer ~range ~join =
  let acc = ref [] in
  while now () < deadline do
    match next_read rng ~joins hot with
    | Join ->
        let id, t0, lat, answer = timed tracer "client.join" join in
        acc := { kind = Join_q; id; t0; lat; box = None; batch = None; answer } :: !acc
    | Range (box, h) ->
        let kind = if h >= 0 && Atomic.get seen.(h) then Warm_range else New_range in
        let id, t0, lat, answer = timed tracer "client.range" (fun () -> range box) in
        if h >= 0 then Atomic.set seen.(h) true;
        acc := { kind; id; t0; lat; box = Some box; batch = None; answer } :: !acc
  done;
  List.rev !acc

(* {1 The live-table model of serve_ingest}

   One writer, so acknowledged batches apply in send order.  Inserted
   points never coincide with a present point and deletes name only
   points this writer inserted, so "remove the first entry at a point"
   is unambiguous and the model is exact. *)

type writer = {
  wrng : W.Rng.t;
  occupied : (int * int, unit) Hashtbl.t;
  model : (int, int * int) Hashtbl.t;  (** id -> point *)
  recent : (int * int array) option array;
  mutable rpos : int;
  mutable next_id : int;
  mutable batches : int;
}

let make_writer seed =
  let w =
    {
      wrng = W.Rng.create ~seed:((seed * 7919) + 17);
      occupied = Hashtbl.create 16384;
      model = Hashtbl.create 16384;
      recent = Array.make recent_cap None;
      rpos = 0;
      next_id = 10_000_000;
      batches = 0;
    }
  in
  Array.iteri
    (fun i p ->
      Hashtbl.replace w.occupied (p.(0), p.(1)) ();
      Hashtbl.replace w.model i (p.(0), p.(1)))
    (Lazy.force wk).W.Seeded.points;
  w

let next_batch w =
  w.batches <- w.batches + 1;
  let filled =
    Array.to_list
      (Array.mapi (fun i s -> if s = None then None else Some i) w.recent)
    |> List.filter_map Fun.id
  in
  if w.batches mod delete_every = 0 && filled <> [] then begin
    let slots = Array.of_list filled in
    W.Rng.shuffle w.wrng slots;
    let take = Array.sub slots 0 (min delete_size (Array.length slots)) in
    (Del (Array.to_list (Array.map (fun i -> snd (Option.get w.recent.(i))) take)), take)
  end
  else
    let side = side () in
    let fresh () =
      let rec go () =
        let p = (W.Rng.int w.wrng side, W.Rng.int w.wrng side) in
        if Hashtbl.mem w.occupied p then go ()
        else (
          Hashtbl.replace w.occupied p ();
          p)
      in
      go ()
    in
    ( Ins
        (List.init batch_size (fun _ ->
             let x, y = fresh () in
             w.next_id <- w.next_id + 1;
             ([| x; y |], w.next_id))),
      [||] )

let ack_batch w b slots applied =
  match b with
  | Ins entries ->
      List.iter
        (fun (p, id) ->
          Hashtbl.replace w.model id (p.(0), p.(1));
          w.recent.(w.rpos) <- Some (id, p);
          w.rpos <- (w.rpos + 1) mod recent_cap)
        entries;
      if applied = List.length entries then Ok ()
      else Error (Printf.sprintf "insert applied %d of %d" applied (List.length entries))
  | Del pts ->
      Array.iter
        (fun i ->
          match w.recent.(i) with
          | Some (id, p) ->
              Hashtbl.remove w.model id;
              Hashtbl.remove w.occupied (p.(0), p.(1));
              w.recent.(i) <- None
          | None -> ())
        slots;
      if applied = List.length pts then Ok ()
      else Error (Printf.sprintf "delete applied %d of %d" applied (List.length pts))

let writer_loop w ~deadline ~tracer ~call =
  let acc = ref [] in
  while now () < deadline do
    let b, slots = next_batch w in
    let id, t0, lat, reply = timed tracer "client.write" (fun () -> call b) in
    let answer =
      match reply with
      | Ok applied -> (
          match ack_batch w b slots applied with
          | Ok () -> Ok (applied, 0)
          | Error e -> Error e)
      | Error e -> Error e
    in
    acc := { kind = Write; id; t0; lat; box = None; batch = Some b; answer } :: !acc
  done;
  List.rev !acc

let model_rows w =
  List.sort compare (Hashtbl.fold (fun id (x, y) acc -> (id, x, y) :: acc) w.model [])

(* {1 Server-side processes} *)

type proc = { role : string; pid : int; log : string }

let running : proc list ref = ref []

let reap_all () =
  List.iter
    (fun p ->
      (try Unix.kill p.pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] p.pid) with Unix.Unix_error _ -> ())
    !running;
  running := []

let spawn ~sqp ~out ~role ~tag args =
  let log = Filename.concat out (Printf.sprintf "%s-%s.log" role tag) in
  let fd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid = Unix.create_process sqp (Array.of_list (sqp :: args)) null fd fd in
  Unix.close fd;
  Unix.close null;
  let p = { role; pid; log } in
  running := p :: !running;
  p

let read_file path = In_channel.with_open_bin path In_channel.input_all

let exited p =
  match Unix.waitpid [ Unix.WNOHANG ] p.pid with
  | 0, _ -> false
  | _ ->
      running := List.filter (fun q -> q.pid <> p.pid) !running;
      true
  | exception Unix.Unix_error _ -> true

(* The machine-readable "KEY=<port>" line both binaries print once they
   listen. *)
let wait_port p key =
  let prefix = key ^ "=" in
  let give_up = now () +. 60. in
  let rec go () =
    let found =
      List.find_map
        (fun l ->
          let n = String.length prefix in
          if String.length l > n && String.sub l 0 n = prefix then
            int_of_string_opt (String.sub l n (String.length l - n))
          else None)
        (String.split_on_char '\n' (read_file p.log))
    in
    match found with
    | Some port -> port
    | None ->
        if exited p then die "%s exited before listening (see %s)" p.role p.log;
        if now () > give_up then die "%s did not listen within 60 s" p.role;
        Thread.delay 0.002;
        go ()
  in
  go ()

let peak_rss_kb pid =
  let status = read_file (Printf.sprintf "/proc/%d/status" pid) in
  List.find_map
    (fun l ->
      match String.split_on_char ':' l with
      | [ "VmHWM"; v ] -> (
          match List.filter (( <> ) "") (String.split_on_char ' ' (String.trim v)) with
          | kb :: _ -> int_of_string_opt kb
          | [] -> None)
      | _ -> None)
    (String.split_on_char '\n' status)
  |> Option.value ~default:0

(* SIGTERM drains the process, which then prints its final metrics. *)
let stop p =
  (try Unix.kill p.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let give_up = now () +. 30. in
  while (not (exited p)) && now () < give_up do
    Thread.delay 0.005
  done;
  if List.exists (fun q -> q.pid = p.pid) !running then begin
    (try Unix.kill p.pid Sys.sigkill with Unix.Unix_error _ -> ());
    (try ignore (Unix.waitpid [] p.pid) with Unix.Unix_error _ -> ());
    running := List.filter (fun q -> q.pid <> p.pid) !running;
    die "%s did not drain within 30 s" p.role
  end;
  B.parse_dump (read_file p.log)

let size_args = [ "--points"; string_of_int n_points; "--objects"; string_of_int n_objects ]

let client_ok what = function
  | Ok v -> v
  | Error e -> die "%s failed: %s" what (Srv.Client.error_to_string e)

(* Start the server side of a serving workload and make it ready for
   the first request; returns the processes and the client port. *)
let start_servers ~sqp ~out ~tag wl =
  match wl with
  | Serve_read | Serve_ingest ->
      let p = spawn ~sqp ~out ~role:"serve" ~tag ([ "serve"; "--port"; "0" ] @ size_args) in
      let port = wait_port p "SQP_SERVE_PORT" in
      Srv.Client.with_connect ~port (fun c ->
          ignore (client_ok "health" (Srv.Client.health c));
          if wl = Serve_read then ignore (client_ok "refresh_stats" (Srv.Client.refresh_stats c)));
      ([ p ], port)
  | Cluster_read ->
      let shards =
        List.init 2 (fun i ->
            spawn ~sqp ~out ~role:(Printf.sprintf "shard%d" i) ~tag
              ([ "serve"; "--port"; "0"; "--shard"; Printf.sprintf "%d/2" i ] @ size_args))
      in
      let ports = List.map (fun p -> wait_port p "SQP_SERVE_PORT") shards in
      let router =
        spawn ~sqp ~out ~role:"router" ~tag
          ([
             "route"; "--port"; "0"; "--shards";
             String.concat "," (List.map (Printf.sprintf "127.0.0.1:%d") ports);
           ]
          @ size_args)
      in
      let port = wait_port router "SQP_ROUTE_PORT" in
      Srv.Client.with_connect ~port (fun c -> ignore (client_ok "health" (Srv.Client.health c)));
      (router :: shards, port)
  | Embedded_range -> assert false

(* {1 Metrics} *)

let m name value unit_ = { B.name; value; unit_ }
let ms_of l = Array.of_list (List.map (fun r -> r.lat *. 1000.) l)
let of_kind k recs = List.filter (fun r -> r.kind = k) recs
let ok_recs recs = List.filter (fun r -> Result.is_ok r.answer) recs

let window_seconds recs start =
  List.fold_left (fun acc r -> Float.max acc (r.t0 +. r.lat)) start recs -. start

let tail_of what samples =
  match B.tail samples with
  | Some t -> t
  | None -> die "%s: %d samples, too few for a tail" what (Array.length samples)

let or_zero x = if Float.is_finite x then x else 0.

(* {1 Verification} *)

let range_oracle =
  lazy
    (let ls = Sqp_kdtree.Linear_scan.build (W.Seeded.tagged_points (Lazy.force wk)) in
     let memo = Hashtbl.create 1024 in
     fun box ->
       let key = (G.Box.lo box, G.Box.hi box) in
       match Hashtbl.find_opt memo key with
       | Some d -> d
       | None ->
           let d =
             digest
               (List.map
                  (fun (p, _) -> (p.(0), p.(1)))
                  (fst (Sqp_kdtree.Linear_scan.range_search ls box)))
           in
           Hashtbl.replace memo key d;
           d)

let join_oracle =
  lazy
    (let cat = Cat.of_seeded (Lazy.force wk) in
     digest (join_pairs (R.Plan.run (Cat.overlap_plan cat))))

(* Failed or wrong answers; each is reported once on stderr.  Reads of
   the live table move under the writer, so they were checked against
   their box when they arrived, and the table once, at the end. *)
let verify ~live recs =
  List.fold_left
    (fun bad r ->
      let wrong why =
        Printf.eprintf "zbench: op %d: %s\n" r.id why;
        bad + 1
      in
      match (r.answer, r.kind, r.box) with
      | Error e, _, _ -> wrong e
      | Ok d, (New_range | Warm_range), Some box when not live ->
          if d = Lazy.force range_oracle box then bad else wrong "range rows differ from a linear scan"
      | Ok d, Join_q, _ ->
          if d = Lazy.force join_oracle then bad else wrong "join rows differ from Plan.run"
      | Ok _, _, _ -> bad)
    0 recs

(* {1 Replay through the engine's public functions (traced runs)} *)

type replay = {
  tracer : T.t;
  mutable ops : int;
  mutable current : int;  (** id of the operation being replayed *)
  mutable codec_bytes : int list;
  mutable planned : int;
  mutable decided : int;
  mutable kernel_rows : int list;
  mutable live_rows : int list;
}

(* Every span carries the id of its operation: the client call's id when
   the operation is a replayed request. *)
let span rp name f =
  let id = rp.current in
  T.with_span rp.tracer name ~attrs:(fun () -> [ ("op", T.Int id) ]) f

let op_span rp name id f =
  rp.ops <- rp.ops + 1;
  rp.current <- id;
  span rp name f

let coord_relation entries =
  let schema = R.Schema.make [ ("x0", R.Value.TInt); ("x1", R.Value.TInt) ] in
  R.Relation.make ~name:"range" schema
    (List.map (fun (p, _) -> [| R.Value.Int p.(0); R.Value.Int p.(1) |]) entries)

let codec rp ~request ~response =
  span rp "protocol" (fun () ->
      ignore (P.decode_request (P.encode_request { P.deadline_ms = None; idem = None; request })));
  span rp "protocol" (fun () ->
      let bytes = P.encode_response response in
      rp.codec_bytes <- String.length bytes :: rp.codec_bytes;
      ignore (P.decode_response bytes))

let first_n n l = List.filteri (fun i _ -> i < n) l

let replay_reads rp ~cat recs =
  let prep = Cat.prepared_points cat in
  let join_plan () =
    let plan = R.Plan.optimize (R.Wire.to_plan ~resolve:(Cat.resolve cat) join_wire_plan) in
    match Cat.stats cat with
    | None -> plan
    | Some st -> fst (Sqp_optimizer.Optimizer.choose_plan st plan)
  in
  List.iter
    (fun r ->
      match (r.kind, r.box) with
      | (New_range | Warm_range), Some box ->
          let lo = G.Box.lo box and hi = G.Box.hi box in
          op_span rp "op.range" r.id (fun () ->
              let access = span rp "decide" (fun () -> Cat.range_access cat ~lo ~hi) in
              rp.decided <- rp.decided + 1;
              let rows =
                match access with
                | Cat.Direct alt ->
                    let search =
                      match alt.Cost.method_ with
                      | Cost.Plain -> Sqp_core.Range_search.search_plain
                      | Cost.Skip -> Sqp_core.Range_search.search_skip
                    in
                    let entries = span rp "kernel" (fun () -> fst (search prep box)) in
                    rp.kernel_rows <- List.length entries :: rp.kernel_rows;
                    coord_relation entries
                | Cat.Planned ->
                    rp.planned <- rp.planned + 1;
                    span rp "plan.range" (fun () ->
                        R.Plan.run (R.Plan.optimize (Cat.range_plan cat ~lo ~hi)))
              in
              codec rp ~request:(P.Range_search { lo; hi }) ~response:(P.Rows rows))
      | Join_q, _ ->
          op_span rp "op.join" r.id (fun () ->
              let rows = span rp "plan.join" (fun () -> R.Plan.run (join_plan ())) in
              codec rp ~request:(P.Query join_wire_plan) ~response:(P.Rows rows))
      | _ -> ())
    recs

let replay_plan_ranges rp ~cat boxes =
  List.iter
    (fun box ->
      let id = Atomic.fetch_and_add op_ids 1 in
      op_span rp "op.plan_range" id (fun () ->
          span rp "plan.range" (fun () ->
              ignore
                (R.Plan.run
                   (R.Plan.optimize (Cat.range_plan cat ~lo:(G.Box.lo box) ~hi:(G.Box.hi box)))))))
    boxes

let replay_decompose rp boxes =
  Z.Decompose.reset_cache ();
  let elements = ref [] in
  List.iter
    (fun pass ->
      List.iter
        (fun box ->
          let id = Atomic.fetch_and_add op_ids 1 in
          op_span rp "op.decompose" id (fun () ->
              let els =
                span rp pass (fun () ->
                    Z.Decompose.decompose_box (space ()) ~lo:(G.Box.lo box) ~hi:(G.Box.hi box))
              in
              if pass = "decompose.cold" then elements := List.length els :: !elements))
        boxes)
    [ "decompose.cold"; "decompose.warm" ];
  !elements

(* The paper's zkd B+-tree over the seeded points, as embedded_range
   builds it: leaf capacity 20, an LRU pool of 8 frames. *)
let build_index () = Zi.of_points (space ()) (W.Seeded.tagged_points (Lazy.force wk))

(* Each box through the zkd B+-tree, its decomposition timed apart: the
   tree's own call then finds it in the cache. *)
let replay_zindex rp idx recs =
  List.filter_map
    (fun r ->
      match r.box with
      | Some box ->
          Some
            (op_span rp "op.zindex" r.id (fun () ->
                 ignore
                   (span rp "decompose" (fun () ->
                        Z.Decompose.decompose_box (space ()) ~lo:(G.Box.lo box)
                          ~hi:(G.Box.hi box)));
                 snd (span rp "zindex" (fun () -> Zi.range_search idx box))))
      | None -> None)
    recs

let live_rows_rel entries =
  let schema =
    R.Schema.make [ ("id", R.Value.TInt); ("x0", R.Value.TInt); ("x1", R.Value.TInt) ]
  in
  R.Relation.make ~name:"live" schema
    (List.map
       (fun (p, id) -> [| R.Value.Int id; R.Value.Int p.(0); R.Value.Int p.(1) |])
       entries)

let replay_live rp recs =
  let lv = Live.create ~encode:string_of_int ~decode:int_of_string (space ()) in
  ignore
    (Live.apply lv
       (Array.to_list
          (Array.mapi (fun i p -> Live.Insert (p, i)) (Lazy.force wk).W.Seeded.points)));
  List.iter
    (fun r ->
      match (r.batch, r.box) with
      | Some b, _ ->
          op_span rp "op.write" r.id (fun () ->
              let ops, request =
                match b with
                | Ins e ->
                    ( List.map (fun (p, id) -> Live.Insert (p, id)) e,
                      P.Insert { table = "L"; points = e } )
                | Del pts -> (List.map (fun p -> Live.Delete p) pts, P.Delete { table = "L"; points = pts })
              in
              let seq, applied = span rp "live.apply" (fun () -> Live.apply lv ops) in
              codec rp ~request ~response:(P.Ack { applied; seq }))
      | None, Some box ->
          op_span rp "op.live_range" r.id (fun () ->
              let entries =
                span rp "live.range" (fun () -> fst (Live.range_search (Live.snapshot lv) box))
              in
              rp.live_rows <- List.length entries :: rp.live_rows;
              codec rp
                ~request:(P.Live_range { table = "L"; lo = G.Box.lo box; hi = G.Box.hi box })
                ~response:(P.Rows (live_rows_rel entries)))
      | None, None -> ())
    recs

(* Per-layer self time.  The spans of one operation share its id; the
   operation's spans sit at depth 0 (the client call and its replay),
   its layer calls at depth 1, with no children of their own.  A span
   counts only the children inside its own interval. *)
let self_times spans =
  let totals = Hashtbl.create 16 in
  let add name v =
    Hashtbl.replace totals name (v +. Option.value ~default:0. (Hashtbl.find_opt totals name))
  in
  let ops = Hashtbl.create 1024 in
  List.iter
    (fun (s : T.span) ->
      match List.assoc_opt "op" s.T.attrs with
      | Some (T.Int id) ->
          Hashtbl.replace ops id (s :: Option.value ~default:[] (Hashtbl.find_opt ops id))
      | _ -> ())
    spans;
  let interval (s : T.span) = (s.T.start, s.T.start +. s.T.duration) in
  Hashtbl.iter
    (fun _ group ->
      let roots, kids = List.partition (fun (s : T.span) -> s.T.depth = 0) group in
      List.iter (fun (c : T.span) -> add c.T.name c.T.duration) kids;
      List.iter
        (fun (p : T.span) ->
          add p.T.name (B.self_time ~parent:(interval p) ~children:(List.map interval kids)))
        roots)
    ops;
  totals

(* {1 Main} *)

type args = {
  workload : workload;
  seed : int;
  seconds : float;
  trace : bool;
  sqp : string;
  out : string;
  rev : string;
}

let parse_args () =
  let get = Hashtbl.create 8 in
  let rec go = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        Hashtbl.replace get (String.sub k 2 (String.length k - 2)) v;
        go rest
    | [] -> ()
    | a :: _ -> die "unexpected argument %S" a
  in
  go (List.tl (Array.to_list Sys.argv));
  let need k = match Hashtbl.find_opt get k with Some v -> v | None -> die "missing --%s" k in
  let int_arg k = match int_of_string_opt (need k) with Some v -> v | None -> die "bad --%s" k in
  {
    workload =
      (match workload_of_string (need "workload") with
      | Some w -> w
      | None -> die "unknown workload %S" (need "workload"));
    seed = int_arg "seed";
    seconds =
      (let s = int_arg "seconds" in
       if s < 1 then die "--seconds must be at least 1" else float_of_int s);
    trace =
      (match need "trace" with "0" -> false | "1" -> true | t -> die "bad --trace %S" t);
    sqp = need "sqp";
    out = need "out";
    rev = Option.value ~default:"unknown" (Hashtbl.find_opt get "rev");
  }

let setup_reps = function Embedded_range -> 7 | _ -> 5

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  at_exit reap_all;
  let quit _ = exit 3 in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle quit);
  Sys.set_signal Sys.sigint (Sys.Signal_handle quit);
  let a = parse_args () in
  let a_start = now () in
  let wl = a.workload in
  let name = workload_name wl in
  let seed = a.seed in
  Printf.printf "zbench: workload %s seed %d seconds %.0f trace %b cores %d rev %s\n%!" name
    seed a.seconds a.trace (Domain.recommended_domain_count ()) a.rev;
  Printf.printf
    "zbench: catalog %d points, %d objects per join side; hot set %d boxes (%.0f%% of \
     ranges), joins %.0f%% of requests on the read workloads\n%!"
    n_points n_objects hot_set (hot_share *. 100.) (join_share *. 100.);
  ignore (Lazy.force wk);
  (* Inputs: the hot set and one generator per connection, all from the
     seed. *)
  let root = W.Rng.create ~seed in
  let hot = Array.init hot_set (fun i -> shape_box root (shape i)) in
  let conn_rng c = W.Rng.create ~seed:((seed * 1_000_003) + c + 1) in
  let seen = Array.init hot_set (fun _ -> Atomic.make false) in
  (* {2 Set-up, several times; the last one stays up} *)
  let reps = setup_reps wl in
  let setups = ref [] and baselines = ref [] in
  let servers = ref [] and port = ref 0 and index = ref None in
  for rep = 1 to reps do
    Gc.full_major ();
    let t0 = now () in
    (match wl with
    | Embedded_range ->
        index := Some (build_index ())
    | _ ->
        let ps, p = start_servers ~sqp:a.sqp ~out:a.out ~tag:(string_of_int rep) wl in
        servers := ps;
        port := p);
    setups := (now () -. t0) :: !setups;
    if rep < reps then
      List.iter (fun p -> baselines := (p.role, stop p) :: !baselines) !servers
  done;
  let setup_s = B.median (Array.of_list !setups) in
  (* {2 The timed windows} *)
  let rngs = Array.init 2 conn_rng in
  let writer = if wl = Serve_ingest then Some (make_writer seed) else None in
  let zstats = ref [] in
  let window ~traced =
    let deadline = now () +. a.seconds in
    let tracers =
      if traced then Array.init 2 (fun _ -> T.create ~capacity:200_000 T.Collect) else [||]
    in
    let tracer c = if traced then Some tracers.(c) else None in
    let start = now () in
    let recs =
      match wl with
      | Embedded_range ->
          let idx = Option.get !index in
          reader_loop ~rng:rngs.(0) ~joins:false ~hot ~seen ~deadline ~tracer:(tracer 0)
            ~join:(fun () -> Error "no joins")
            ~range:(fun box ->
              let entries, st = Zi.range_search idx box in
              zstats := st :: !zstats;
              Ok (digest (List.map (fun (p, _) -> (p.(0), p.(1))) entries)))
      | _ ->
          let results = Array.make 2 [] in
          let conn c =
            Srv.Client.with_connect ~port:!port (fun client ->
                match (wl, writer, c) with
                | Serve_ingest, Some w, 0 ->
                    writer_loop w ~deadline ~tracer:(tracer c) ~call:(fun b ->
                        let r =
                          match b with
                          | Ins e -> Srv.Client.insert client ~table:"L" e
                          | Del pts -> Srv.Client.delete client ~table:"L" pts
                        in
                        Result.map_error Srv.Client.error_to_string (Result.map fst r))
                | Serve_ingest, _, _ ->
                    reader_loop ~rng:rngs.(c) ~joins:false ~hot ~seen ~deadline
                      ~tracer:(tracer c)
                      ~join:(fun () -> Error "no joins")
                      ~range:(fun box ->
                        match
                          Srv.Client.live_range client ~table:"L" ~lo:(G.Box.lo box)
                            ~hi:(G.Box.hi box)
                        with
                        | Ok rel ->
                            let pts = coords_of rel ~first:1 in
                            if List.for_all (fun (x, y) -> G.Box.contains_point box [| x; y |]) pts
                            then Ok (digest pts)
                            else Error "live range row outside its box"
                        | Error e -> Error (Srv.Client.error_to_string e))
                | _ ->
                    reader_loop ~rng:rngs.(c) ~joins:true ~hot ~seen ~deadline
                      ~tracer:(tracer c)
                      ~join:(fun () ->
                        match Srv.Client.query client join_wire_plan with
                        | Ok rel -> Ok (digest (join_pairs rel))
                        | Error e -> Error (Srv.Client.error_to_string e))
                      ~range:(fun box ->
                        match
                          Srv.Client.range_search client ~lo:(G.Box.lo box) ~hi:(G.Box.hi box)
                        with
                        | Ok rel -> Ok (digest (coords_of rel ~first:0))
                        | Error e -> Error (Srv.Client.error_to_string e)))
          in
          let threads = List.init 2 (fun c -> Thread.create (fun () -> results.(c) <- conn c) ()) in
          List.iter Thread.join threads;
          List.sort (fun x y -> compare x.t0 y.t0) (results.(0) @ results.(1))
    in
    let spans =
      if traced then
        List.concat
          (List.mapi
             (fun c tr -> List.map (fun (s : T.span) -> { s with T.tid = 100 + c }) (T.spans tr))
             (Array.to_list tracers))
      else []
    in
    (recs, window_seconds recs start, spans)
  in
  let gc0 = Gc.quick_stat () in
  let recs_u, secs_u, _ = window ~traced:false in
  let gc1 = Gc.quick_stat () in
  let recs_t, secs_t, client_spans =
    if a.trace then window ~traced:true else ([], 0., [])
  in
  (* {2 After the windows: final live check, memory, drain} *)
  let final_bad =
    match (wl, writer) with
    | Serve_ingest, Some w ->
        let s = side () - 1 in
        let rows =
          Srv.Client.with_connect ~port:!port (fun c ->
              client_ok "final live range"
                (Srv.Client.live_range c ~table:"L" ~lo:[| 0; 0 |] ~hi:[| s; s |]))
        in
        let got =
          List.sort compare
            (List.map
               (fun tu -> (int_col tu 0, int_col tu 1, int_col tu 2))
               (R.Relation.tuples rows))
        in
        if got = model_rows w then 0
        else (
          Printf.eprintf
            "zbench: final live table (%d rows) differs from the model of acknowledged \
             batches (%d rows)\n"
            (List.length got) (Hashtbl.length w.model);
          1)
    | _ -> 0
  in
  let rss_kb =
    match wl with
    | Embedded_range -> peak_rss_kb (Unix.getpid ())
    | _ -> List.fold_left (fun acc p -> acc + peak_rss_kb p.pid) 0 !servers
  in
  let finals = List.map (fun p -> (p.role, stop p)) !servers in
  (* window share of a server-side counter: final minus the mean of the
     set-up-only lifetimes of the same role *)
  let window_value f key =
    List.fold_left
      (fun acc (role, d) ->
        let base = List.filter_map (fun (r, b) -> if r = role then Some (f b key) else None) !baselines in
        let mean_base =
          if base = [] then 0.
          else float_of_int (List.fold_left ( + ) 0 base) /. float_of_int (List.length base)
        in
        acc +. float_of_int (f d key) -. mean_base)
      0.
  in
  let server_roles = List.filter (fun (r, _) -> r <> "router") finals in
  let router_roles = List.filter (fun (r, _) -> r = "router") finals in
  (* Every operation of the run, for looking into a figure afterwards. *)
  Out_channel.with_open_text (Filename.concat a.out "ops.tsv") (fun oc ->
      output_string oc "id\tkind\tstart_s\tlatency_ms\tbox_lo\tbox_hi\trows\n";
      List.iter
        (fun r ->
          let box f =
            match r.box with
            | Some b -> String.concat "," (List.map string_of_int (Array.to_list (f b)))
            | None -> "-"
          in
          Printf.fprintf oc "%d\t%s\t%.6f\t%.3f\t%s\t%s\t%s\n" r.id
            (match r.kind with
            | New_range -> "new"
            | Warm_range -> "warm"
            | Join_q -> "join"
            | Write -> "write")
            (r.t0 -. a_start) (r.lat *. 1000.) (box G.Box.lo) (box G.Box.hi)
            (match r.answer with Ok (n, _) -> string_of_int n | Error _ -> "error"))
        (recs_u @ recs_t));
  (* {2 Correctness} *)
  let all_recs = recs_u @ recs_t in
  let bad = verify ~live:(wl = Serve_ingest) all_recs + final_bad in
  let attempted = List.length all_recs in
  (* {2 End-to-end figures, from the untraced window} *)
  let ranges_u = of_kind New_range recs_u |> ok_recs in
  let warm_u = of_kind Warm_range recs_u |> ok_recs in
  let completed_u = List.length (ok_recs recs_u) in
  let ops_s = float_of_int completed_u /. secs_u in
  let range_tail = tail_of "range" (ms_of ranges_u) in
  let e2e =
    [
      m "setup_s" setup_s "s";
      m "ops_s" ops_s "ops/s";
      m "range_mean_ms" (B.mean (ms_of ranges_u)) "ms";
      m "range_tail_ms" range_tail.B.value "ms";
      m "range_warm_mean_ms" (B.mean (ms_of warm_u)) "ms";
      m "peak_rss_mb" (float_of_int rss_kb /. 1024.) "MiB";
    ]
  in
  Printf.printf "zbench: %d ops in the untraced window of %.2f s; setup times %s s\n" completed_u
    secs_u
    (String.concat ", " (List.rev_map (Printf.sprintf "%.4f") !setups));
  Printf.printf "zbench: range_tail_ms is p%g of %d new-box ranges (%d beyond); %d warm ranges\n"
    range_tail.B.pct range_tail.B.n range_tail.B.beyond (List.length warm_u);
  Printf.printf "zbench: failed_frac %d/%d\n" bad attempted;
  if wl = Serve_ingest then
    print_endline
      "zbench: flush policy: live table L is in memory as sqp serve builds it (no journal, \
       no fsync)";
  (* Figures only one workload has; reported with the per-layer metrics. *)
  let writes = of_kind Write recs_u |> ok_recs in
  let joins = of_kind Join_q recs_u |> ok_recs in
  let reads_u = ranges_u @ warm_u in
  let specific =
    let p50 l = or_zero (B.median (ms_of l)) in
    let tail l = match B.tail (ms_of l) with Some t -> t.B.value | None -> 0. in
    let applied =
      List.fold_left (fun acc r -> match r.answer with Ok (n, _) -> acc + n | Error _ -> acc) 0 writes
    in
    let is_ingest = wl = Serve_ingest in
    [
      m "range_p50_ms" (p50 ranges_u) "ms";
      m "range_warm_p50_ms" (p50 warm_u) "ms";
      m "join_p50_ms" (p50 joins) "ms";
      m "write_p50_ms" (p50 writes) "ms";
      m "write_tail_ms" (tail writes) "ms";
      m "write_rows_s" (float_of_int applied /. secs_u) "rows/s";
      m "live_range_p50_ms" (if is_ingest then p50 reads_u else 0.) "ms";
      m "live_range_tail_ms" (if is_ingest then tail reads_u else 0.) "ms";
      m "failed_frac" (float_of_int bad /. float_of_int (max 1 attempted)) "ratio";
      m "range_tail_pct" range_tail.B.pct "pct";
      m "range_samples" (float_of_int range_tail.B.n) "count";
    ]
  in
  let result metrics =
    List.iter
      (fun (x : B.metric) -> Printf.printf "metric %-36s %.6g %s\n" x.B.name x.B.value x.B.unit_)
      metrics;
    print_endline (B.result_json ~correct:(bad = 0) ~attempted ~failed:bad metrics);
    exit (if bad = 0 then 0 else 1)
  in
  if not a.trace then result e2e;
  (* {2 Traced run: server-side counts, replay, spans} *)
  let rp =
    {
      tracer = T.create ~capacity:400_000 T.Collect;
      ops = 0;
      current = -1;
      codec_bytes = [];
      planned = 0;
      decided = 0;
      kernel_rows = [];
      live_rows = [];
    }
  in
  let reads_all = List.filter (fun r -> r.box <> None) all_recs in
  let sample = first_n replay_ops (List.filter (fun r -> r.box <> None || r.kind = Join_q) all_recs) in
  let new_boxes =
    first_n replay_ops (List.filter_map (fun r -> if r.kind = New_range then r.box else None) all_recs)
  in
  let gcr0 = Gc.quick_stat () in
  let join_analysis = ref None in
  let elements =
    match wl with
    | Serve_read | Cluster_read ->
        let cat = Cat.of_seeded (Lazy.force wk) in
        if wl = Serve_read then ignore (Cat.analyze cat);
        Z.Decompose.reset_cache ();
        replay_reads rp ~cat sample;
        replay_plan_ranges rp ~cat (first_n plan_range_boxes new_boxes);
        join_analysis := Some (R.Plan.run_analyze (R.Plan.optimize (Cat.overlap_plan cat)));
        zstats := replay_zindex rp (build_index ()) sample;
        replay_decompose rp new_boxes
    | Serve_ingest ->
        Z.Decompose.reset_cache ();
        replay_live rp (first_n (2 * replay_ops) all_recs);
        replay_decompose rp new_boxes
    | Embedded_range ->
        Z.Decompose.reset_cache ();
        ignore (replay_zindex rp (Option.get !index) sample);
        replay_decompose rp new_boxes
  in
  let gcr1 = Gc.quick_stat () in
  let spans = T.spans rp.tracer in
  let totals = self_times (client_spans @ spans) in
  let total name = Option.value ~default:0. (Hashtbl.find_opt totals name) in
  let durations name =
    Array.of_list
      (List.filter_map
         (fun (s : T.span) -> if s.T.name = name then Some s.T.duration else None)
         spans)
  in
  let mean_us name = or_zero (B.mean (durations name)) *. 1e6 in
  let per_op x = if rp.ops = 0 then 0. else x /. float_of_int rp.ops *. 1e6 in
  let serving = wl <> Embedded_range in
  let client_total_ms = List.fold_left (fun acc r -> acc +. (r.lat *. 1000.)) 0. all_recs in
  let latency_sum = window_value B.dump_sum "server.latency_us" server_roles in
  let latency_count = window_value B.dump_count "server.latency_us" server_roles in
  let requests = window_value B.dump_count "server.requests" server_roles in
  let range_requests = List.length reads_all in
  let residual =
    if serving then
      B.residual_ms ~rtt_total_ms:client_total_ms ~server_total_us:latency_sum ~requests:attempted
    else 0.
  in
  let dc key = window_value B.dump_count key (server_roles @ router_roles) in
  let hits = dc "decompose.cache.hits" and misses = dc "decompose.cache.misses" in
  let ratio a b = if b > 0. then a /. b else 0. in
  let zsum f = float_of_int (List.fold_left (fun acc st -> acc + f st) 0 !zstats) in
  let nz = float_of_int (max 1 (List.length !zstats)) in
  let fanout_sum = window_value B.dump_sum "cluster.fanout" router_roles in
  let fanout_count = window_value B.dump_count "cluster.fanout" router_roles in
  let skipped = window_value B.dump_count "cluster.shards_skipped" router_roles in
  let op_count_for_gc, minor, major =
    match wl with
    | Embedded_range ->
        ( List.length recs_u,
          gc1.Gc.minor_words -. gc0.Gc.minor_words,
          gc1.Gc.major_collections - gc0.Gc.major_collections )
    | _ ->
        ( rp.ops,
          gcr1.Gc.minor_words -. gcr0.Gc.minor_words,
          gcr1.Gc.major_collections - gcr0.Gc.major_collections )
  in
  let join_op_ms label =
    match !join_analysis with
    | None -> 0.
    | Some an ->
        let rec sum (n : R.Plan.node_report) =
          let first =
            match String.split_on_char ' ' n.R.Plan.op with w :: _ -> w | [] -> ""
          in
          (if first = label then n.R.Plan.elapsed *. 1000. else 0.)
          +. List.fold_left (fun acc c -> acc +. sum c) 0. n.R.Plan.children
        in
        sum an.R.Plan.report
  in
  let join_pages f = match !join_analysis with None -> 0. | Some an -> f an.R.Plan.total_pages in
  let traced_ranges = of_kind New_range recs_t |> ok_recs in
  let traced_ops_s = float_of_int (List.length (ok_recs recs_t)) /. secs_t in
  let list_mean l = or_zero (B.mean (Array.of_list (List.map float_of_int l))) in
  let codec_us =
    (* two protocol spans per op: request and response *)
    let d = durations "protocol" in
    if Array.length d = 0 then 0. else Array.fold_left ( +. ) 0. d /. float_of_int (Array.length d / 2) *. 1e6
  in
  let per_layer =
    [
      m "wire.rtt_ms" (if serving then client_total_ms /. float_of_int attempted else 0.) "ms";
      m "wire.residual_ms" residual "ms";
      m "protocol.codec_us" codec_us "us";
      m "protocol.response_bytes" (list_mean rp.codec_bytes) "bytes";
      m "admission.wait_ms" (ratio (window_value B.dump_sum "server.queue_wait_us" server_roles) requests /. 1000.) "ms";
      m "admission.shed_frac" (ratio (window_value B.dump_count "server.shed" server_roles) requests) "ratio";
      m "server.handle_ms" (ratio latency_sum latency_count /. 1000.) "ms";
      m "server.dedup_hits" (window_value B.dump_count "server.dedup.hits" server_roles) "count";
      m "decide.us" (mean_us "decide") "us";
      m "decide.planned_frac" (ratio (float_of_int rp.planned) (float_of_int rp.decided)) "ratio";
      m "decompose.cold_us" (mean_us "decompose.cold") "us";
      m "decompose.warm_us" (mean_us "decompose.warm") "us";
      m "decompose.elements_per_box" (list_mean elements) "count";
      m "decompose.calls_per_range" (ratio (hits +. misses) (float_of_int range_requests)) "count";
      m "decompose.hit_ratio" (ratio hits (hits +. misses)) "ratio";
      m "kernel.merge_us" (mean_us "kernel") "us";
      m "kernel.rows_per_range" (list_mean rp.kernel_rows) "count";
      m "plan.range_ms" (mean_us "plan.range" /. 1000.) "ms";
      m "plan.join_ms" (match !join_analysis with Some an -> an.R.Plan.wall_seconds *. 1000. | None -> 0.) "ms";
      m "plan.join.scan_ms" (join_op_ms "scan") "ms";
      m "plan.join.spatial_ms" (join_op_ms "spatial") "ms";
      m "plan.join.project_ms" (join_op_ms "project") "ms";
      m "pages_per_range" (zsum (fun s -> s.Zi.data_pages) /. nz) "pages";
      m "zindex.leaf_accesses_per_range" (zsum (fun s -> s.Zi.leaf_accesses) /. nz) "count";
      m "zindex.internal_accesses_per_range" (zsum (fun s -> s.Zi.internal_accesses) /. nz) "count";
      m "zindex.pool_miss_ratio"
        (ratio (zsum (fun s -> s.Zi.pool_misses)) (zsum (fun s -> s.Zi.pool_hits + s.Zi.pool_misses)))
        "ratio";
      m "zindex.scanned_per_result"
        (ratio (zsum (fun s -> s.Zi.entries_scanned)) (zsum (fun s -> s.Zi.results)))
        "ratio";
      m "storage.join_page_reads" (join_pages (fun st -> float_of_int st.Sqp_storage.Stats.physical_reads)) "count";
      m "storage.join_pool_hit_ratio" (join_pages Sqp_storage.Stats.hit_ratio) "ratio";
      m "live.apply_ms" (mean_us "live.apply" /. 1000.) "ms";
      m "live.snapshot_range_ms" (mean_us "live.range" /. 1000.) "ms";
      m "live.rows_per_read" (list_mean rp.live_rows) "count";
      m "router.residual_ms" (if wl = Cluster_read then residual else 0.) "ms";
      m "router.fanout" (ratio fanout_sum fanout_count) "count";
      m "router.skipped_frac" (ratio skipped (fanout_sum +. skipped)) "ratio";
      m "gc.minor_words_per_op" (ratio minor (float_of_int op_count_for_gc)) "words";
      m "gc.major_per_kop" (ratio (float_of_int major *. 1000.) (float_of_int op_count_for_gc)) "count";
      m "self.client_ms"
        (ratio
           (total "client.range" +. total "client.join" +. total "client.write")
           (float_of_int (List.length recs_t))
        *. 1000.)
        "ms";
      m "self.op_us"
        (per_op
           (List.fold_left (fun acc n -> acc +. total n) 0.
              [
                "op.range"; "op.join"; "op.write"; "op.live_range"; "op.plan_range";
                "op.decompose"; "op.zindex";
              ]))
        "us";
      m "self.protocol_us" (per_op (total "protocol")) "us";
      m "self.decide_us" (per_op (total "decide")) "us";
      m "self.decompose_us"
        (per_op (total "decompose" +. total "decompose.cold" +. total "decompose.warm"))
        "us";
      m "self.kernel_us" (per_op (total "kernel")) "us";
      m "self.plan_us" (per_op (total "plan.range" +. total "plan.join")) "us";
      m "self.zindex_us" (per_op (total "zindex")) "us";
      m "self.live_us" (per_op (total "live.apply" +. total "live.range")) "us";
      m "trace.overhead_ops_s" (traced_ops_s -. ops_s) "ops/s";
      m "trace.overhead_range_p50_ms"
        (or_zero (B.median (ms_of traced_ranges)) -. or_zero (B.median (ms_of ranges_u)))
        "ms";
      m "trace.spans" (float_of_int (List.length client_spans + List.length spans)) "count";
    ]
    @ specific
  in
  T.write_chrome (Filename.concat a.out "trace.json") (client_spans @ spans);
  let range_mean = B.mean (ms_of ranges_u) in
  if serving then
    Printf.printf
      "zbench: wire.residual_ms %.2f of range_mean_ms %.2f (%.0f%%): time outside every \
       server handler\n"
      residual range_mean (100. *. residual /. range_mean);
  result per_layer
