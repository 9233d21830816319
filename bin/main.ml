(* sqp: command-line front end for the reproduction.  Each subcommand
   regenerates one of the paper's figures or experiment tables. *)

open Cmdliner
module Srv = Sqp_server

let dataset_conv =
  let parse = function
    | "U" | "u" | "uniform" -> Ok Sqp_workload.Datagen.Uniform
    | "C" | "c" | "clustered" -> Ok Sqp_workload.Datagen.Clustered
    | "D" | "d" | "diagonal" -> Ok Sqp_workload.Datagen.Diagonal
    | s -> Error (`Msg (Printf.sprintf "unknown dataset %S (use U, C or D)" s))
  in
  let print fmt ds =
    Format.pp_print_string fmt (Sqp_workload.Datagen.dataset_name ds)
  in
  Arg.conv (parse, print)

let dataset_arg =
  Arg.(
    value
    & opt dataset_conv Sqp_workload.Datagen.Uniform
    & info [ "d"; "dataset" ] ~docv:"DATASET"
        ~doc:"Dataset: U (uniform), C (clustered) or D (diagonal).")

let all_datasets_arg =
  Arg.(
    value & flag
    & info [ "all" ] ~doc:"Run for all three datasets (U, C, D).")

let simple name doc f = Cmd.v (Cmd.info name ~doc) Term.(const f $ const ())

let with_dataset name doc f =
  let run dataset all =
    if all then
      List.iter f Sqp_workload.Datagen.[ Uniform; Clustered; Diagonal ]
    else f dataset
  in
  Cmd.v (Cmd.info name ~doc) Term.(const run $ dataset_arg $ all_datasets_arg)

let figures_cmd =
  simple "figures" "Reproduce Figures 1-5 (z order, decomposition, merge)."
    (fun () ->
      Sqp_core.Reports.print_figure1 ();
      Sqp_core.Reports.print_figure2 ();
      Sqp_core.Reports.print_figure3 ();
      Sqp_core.Reports.print_figure4 ();
      Sqp_core.Reports.print_figure5 ())

let figure6_cmd =
  with_dataset "figure6" "Figure 6: page-partition map of the zkd B+-tree."
    (fun ds -> Sqp_core.Reports.print_figure6 ~datasets:[ ds ] ())

let experiment_cmd =
  with_dataset "experiment" "The Section 5.3.2 range-query experiment table."
    Sqp_core.Reports.print_range_experiment

let compare_cmd =
  with_dataset "compare" "zkd B+-tree vs kd tree vs linear scan."
    Sqp_core.Reports.print_structure_comparison

let strategies_cmd =
  with_dataset "strategies" "Search-strategy ablation (merge/lazy/bigmin/scan)."
    Sqp_core.Reports.print_strategy_comparison

let policies_cmd =
  with_dataset "policies" "Buffer-replacement policies under the merge workload."
    Sqp_core.Reports.print_buffer_policies

let partial_match_cmd =
  simple "partial-match" "Partial-match page accesses vs N (predicted N^0.5)."
    Sqp_core.Reports.print_partial_match

let euv_cmd =
  simple "euv" "E(U,V) table: border sensitivity and cyclicity (Section 5.1)."
    Sqp_core.Reports.print_euv_table

let coarsen_cmd =
  simple "coarsen" "The coarsening optimization trade-off (Section 5.1)."
    Sqp_core.Reports.print_coarsening

let proximity_cmd =
  simple "proximity" "Proximity preservation of z order (Section 5.2)."
    Sqp_core.Reports.print_proximity

let join_cmd =
  simple "join" "Spatial join: merge vs nested loop (Section 4)."
    Sqp_core.Reports.print_spatial_join

let overlay_cmd =
  simple "overlay" "Overlay on elements vs grid (Section 6)."
    Sqp_core.Reports.print_overlay_scaling

let ccl_cmd =
  simple "ccl" "Connected component labelling on elements (Section 6)."
    Sqp_core.Reports.print_ccl

let interference_cmd =
  simple "interference" "CAD interference detection (Section 6)."
    Sqp_core.Reports.print_interference

let fill_cmd =
  with_dataset "fill" "Leaf fill-factor ablation (bulk-load occupancy)."
    Sqp_core.Reports.print_fill_factor

let three_d_cmd =
  simple "three-d" "3d range and partial-match experiment (higher-dim follow-up)."
    Sqp_core.Reports.print_3d_experiment

let curves_cmd =
  simple "curves" "Curve-clustering ablation: z vs Hilbert vs row-major."
    Sqp_core.Reports.print_curve_comparison

let object_join_cmd =
  simple "object-join" "Disk-resident spatial join over B+-tree leaf chains."
    Sqp_core.Reports.print_object_join

let all_cmd = simple "all" "Every figure and table, in paper order."
    Sqp_core.Reports.run_all

(* The observability showcase: run the seeded stored-relation spatial
   join through the plan layer, optionally under EXPLAIN ANALYZE and/or
   a collecting tracer exported as a Chrome trace. *)
let query_cmd =
  let module W = Sqp_workload in
  let module R = Sqp_relalg in
  let module Obs = Sqp_obs in
  let analyze_arg =
    Arg.(
      value & flag
      & info [ "analyze" ]
          ~doc:
            "EXPLAIN ANALYZE: execute under measurement and print the \
             operator tree annotated with actual rows, wall time and page \
             accesses per node, then the ambient metrics registry.")
  in
  let trace_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Record spans while running and write them to $(docv) as a \
             Chrome trace_event file (open at chrome://tracing or \
             ui.perfetto.dev).")
  in
  let run analyze trace =
    let wk = W.Seeded.standard () in
    let tracer =
      match trace with
      | None -> None
      | Some path ->
          let t = Obs.Trace.create ~capacity:8192 Obs.Trace.Collect in
          Obs.Trace.set_global t;
          Some (t, path)
    in
    let plan =
      R.Plan.optimize
        (R.Query.stored_overlap_plan ~options:wk.W.Seeded.decompose_options
           wk.W.Seeded.space wk.W.Seeded.left_objects wk.W.Seeded.right_objects)
    in
    if analyze then begin
      print_string (R.Plan.explain_analyze plan);
      print_newline ();
      print_endline "Ambient metrics:";
      print_string
        (Sqp_obs.Metrics.to_text
           (Sqp_obs.Metrics.snapshot (Sqp_obs.Metrics.global ())))
    end
    else begin
      print_string (R.Plan.explain plan);
      print_newline ();
      Format.printf "%a@." R.Relation.pp (R.Plan.run plan)
    end;
    match tracer with
    | None -> ()
    | Some (t, path) ->
        Obs.Trace.write_chrome path (Obs.Trace.spans t);
        Obs.Trace.set_global Obs.Trace.null;
        Printf.printf "wrote %d spans to %s\n" (List.length (Obs.Trace.spans t)) path
  in
  Cmd.v
    (Cmd.info "query"
       ~doc:
         "The Section 4 overlap query over paged (stored) relations: its \
          EXPLAIN and rows, or EXPLAIN ANALYZE, with optional Chrome-trace \
          output.")
    Term.(const run $ analyze_arg $ trace_arg)

(* Offline store checking and salvage over the crash-safe page store. *)
let fsck_cmd =
  let module S = Sqp_storage in
  let path_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"PATH" ~doc:"The store file to check.")
  in
  let salvage_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "salvage" ] ~docv:"DEST"
          ~doc:
            "Rebuild a best-effort copy of the store at $(docv) from every \
             page whose checksum still verifies.")
  in
  let make_demo_arg =
    Arg.(
      value & flag
      & info [ "make-demo" ]
          ~doc:
            "First write a small demo store at PATH and flip one byte in \
             it, so the report (and salvage) have something to find.  \
             Overwrites PATH.")
  in
  let make_demo path =
    let fp = S.File_pager.create ~page_bytes:128 path in
    let ids =
      List.init 8 (fun i -> S.File_pager.alloc fp (Bytes.make 32 (Char.chr (65 + i))))
    in
    S.File_pager.free fp (List.nth ids 3);
    S.File_pager.close fp;
    (* Flip a payload byte of slot 2; its checksum no longer verifies. *)
    let fd = Unix.openfile path [ Unix.O_RDWR ] 0 in
    ignore (Unix.lseek fd ((2 * 128) + 16) Unix.SEEK_SET);
    ignore (Unix.write fd (Bytes.make 1 '\255') 0 1);
    Unix.close fd;
    Printf.printf "wrote a demo store with one corrupted page to %s\n" path
  in
  (* When the store is a {!Sqp_btree.Persist} index dump, report its
     format version and validate the page structure too — for v3 this
     walks every front-coded run's restart points. *)
  let index_report path =
    match Sqp_btree.Persist.inspect ~path () with
    | exception _ -> true  (* not an index dump (or unreadable): page-store report stands alone *)
    | info ->
        let module P = Sqp_btree.Persist in
        Printf.printf
          "index: format v%d, %dd space (depth %d), %d entries on %d data \
           page(s)%s\n"
          info.P.version info.P.dims info.P.depth info.P.count
          info.P.data_pages
          (match info.P.page_budget with
          | Some b -> Printf.sprintf ", page budget %dB" b
          | None -> "");
        if info.P.found <> info.P.count then
          Printf.printf "index: only %d of %d entries decode\n" info.P.found
            info.P.count;
        List.iter
          (fun (slot, what) -> Printf.printf "index: page %d: %s\n" slot what)
          (List.rev info.P.page_errors);
        info.P.page_errors = [] && info.P.found = info.P.count
  in
  let run path salvage demo =
    if demo then make_demo path;
    match S.Fsck.scan path with
    | exception S.Storage_error.Io_error { error; _ } ->
        Printf.eprintf "fsck: cannot read %s: %s\n" path (Unix.error_message error);
        Stdlib.exit 1
    | report ->
        print_string (S.Fsck.to_text report);
        let index_ok = index_report path in
        (match salvage with
        | None -> ()
        | Some dest ->
            let salvaged, lost = S.Fsck.salvage ~src:path ~dest () in
            Printf.printf "salvage: recovered %d page(s) into %s, lost %d\n" salvaged dest
              lost);
        if not (S.Fsck.clean report && index_ok) then Stdlib.exit 1
  in
  Cmd.v
    (Cmd.info "fsck"
       ~doc:
         "Check a page-store file: header, per-page checksums, free list, \
          live counts and any pending journal.  Exits 1 if problems are \
          found; $(b,--salvage) rebuilds what survives.")
    Term.(const run $ path_arg $ salvage_arg $ make_demo_arg)

(* {1 Network serving}

   [serve] exposes the seeded catalog over the wire protocol; [shell]
   is the interactive/scripted client.  Together they are the "database
   server interface" deployment mode of the serving tier (lib/server);
   perfbench/ drives the same binary under closed-loop load. *)

let host_arg =
  Arg.(
    value
    & opt string "127.0.0.1"
    & info [ "host" ] ~docv:"HOST" ~doc:"Address to bind or connect to.")

let port_arg ~default =
  Arg.(
    value & opt int default
    & info [ "port" ] ~docv:"PORT" ~doc:"TCP port (serve, route: 0 picks one).")

(* {2 Argument checks}

   A flag value out of range is a usage error: one line on stderr and
   exit 2, before anything is built, bound or dialed. *)

let usage_error cmd fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "sqp %s: %s\n%!" cmd msg;
      Stdlib.exit 2)
    fmt

(* TCP ports are 0..65535; 0 asks the kernel for a free port, so it is
   valid to listen on but not to dial. *)
let valid_port ~listen port = port >= (if listen then 0 else 1) && port <= 65535

let check_port cmd ~listen port =
  if not (valid_port ~listen port) then
    usage_error cmd "bad --port %d (want %d..65535)" port (if listen then 0 else 1)

let check_min cmd flag ~min n =
  if n < min then usage_error cmd "bad --%s %d (want at least %d)" flag n min

(* A deadline travels as a u32 of milliseconds, and 0 would expire
   every request before it runs. *)
let check_deadline cmd = function
  | Some ms when ms < 1 || ms > 0xffff_ffff ->
      usage_error cmd "bad --deadline-ms %d (want 1..4294967295)" ms
  | _ -> ()

(* The seeded workload refuses more points than the grid has cells.
   Nothing served reads its query boxes, so none are drawn. *)
let seeded_workload cmd ~points ~objects =
  check_min cmd "points" ~min:0 points;
  check_min cmd "objects" ~min:0 objects;
  match
    Sqp_workload.Seeded.standard ~n_points:points ~n_objects:objects
      ~n_query_boxes:0 ()
  with
  | wk -> wk
  | exception Invalid_argument msg -> usage_error cmd "bad --points/--objects: %s" msg

(* A dial or bind that fails: one [error:] line and exit 1. *)
let network_error fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "error: %s\n%!" msg;
      Stdlib.exit 1)
    fmt

let describe_exn = function
  | Unix.Unix_error (err, _, _) -> Unix.error_message err
  | Failure msg -> msg
  | e -> Printexc.to_string e

(* One status line of [serve] or [route] on stdout, flushed.  Once they
   listen SIGPIPE is ignored, so a write to a stdout whose reader has
   gone fails with [Sys_error].  Then stdout becomes /dev/null: the line,
   the rest of the channel's buffer and every later line are dropped
   (the flush at exit too), and the drain, the final metrics and the
   shard shutdown still run. *)
let status fmt =
  Printf.ksprintf
    (fun line ->
      try
        print_string line;
        flush stdout
      with Sys_error _ -> (
        try
          let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
          Unix.dup2 null Unix.stdout;
          Unix.close null
        with Unix.Unix_error _ -> ()))
    fmt

(* SIGTERM and SIGINT set the returned flag.  Serve and route install
   this before they listen: a signal sent as soon as the node answers
   must drain it, not kill it. *)
let stop_on_signal () =
  let stop_requested = ref false in
  let on_signal _ = stop_requested := true in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
  Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
  stop_requested

let serve_cmd =
  let in_flight_arg =
    Arg.(
      value & opt int 8
      & info [ "max-in-flight" ] ~docv:"N"
          ~doc:"Concurrent query executions before requests queue.")
  in
  let queue_arg =
    Arg.(
      value & opt int 32
      & info [ "max-queue" ] ~docv:"N"
          ~doc:"Queued requests beyond that before load is shed.")
  in
  let deadline_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "deadline-ms" ] ~docv:"MS"
          ~doc:"Default per-request deadline when the client sends none.")
  in
  let points_arg =
    Arg.(
      value & opt int 5000
      & info [ "points" ] ~docv:"N" ~doc:"Points in the seeded catalog.")
  in
  let objects_arg =
    Arg.(
      value & opt int 48
      & info [ "objects" ] ~docv:"N"
          ~doc:"Objects per spatial-join side in the seeded catalog.")
  in
  let idle_timeout_arg =
    Arg.(
      value & opt float 0.
      & info [ "idle-timeout-s" ] ~docv:"S"
          ~doc:
            "Close sessions that start no frame for $(docv) seconds (0 = \
             never; reaps leaked connections).")
  in
  let frame_timeout_arg =
    Arg.(
      value & opt float 30.
      & info [ "frame-timeout-s" ] ~docv:"S"
          ~doc:
            "Bound reading one frame's payload and writing one response (0 = \
             unbounded) — the slow-loris guard.")
  in
  let shard_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "shard" ] ~docv:"SPEC"
          ~doc:
            "Serve one cluster shard's z-range slice of the seeded catalog: \
             $(i,I/N) (the I-th of N even ranges, 0-based — what $(b,sqp \
             route --spawn) uses) or $(i,ZLO:ZHI) (an explicit inclusive z \
             interval, 0 <= ZLO <= ZHI).")
  in
  let run host port max_in_flight max_queue default_deadline_ms
      n_points n_objects idle_timeout_s frame_timeout_s shard_spec =
    check_port "serve" ~listen:true port;
    check_min "serve" "max-in-flight" ~min:1 max_in_flight;
    check_min "serve" "max-queue" ~min:0 max_queue;
    check_deadline "serve" default_deadline_ms;
    let wk = seeded_workload "serve" ~points:n_points ~objects:n_objects in
    let shard =
      Option.map
        (fun spec ->
          let fail () = usage_error "serve" "bad --shard %S (want I/N or ZLO:ZHI)" spec in
          match String.split_on_char '/' spec with
          | [ i; n ] -> (
              match (int_of_string_opt i, int_of_string_opt n) with
              | Some i, Some n when n > 0 && i >= 0 && i < n ->
                  List.nth
                    (Srv.Shard_map.even_ranges wk.Sqp_workload.Seeded.space n)
                    i
              | _ -> fail ())
          | [ _ ] -> (
              match String.split_on_char ':' spec with
              | [ lo; hi ] -> (
                  match (int_of_string_opt lo, int_of_string_opt hi) with
                  | Some lo, Some hi when 0 <= lo && lo <= hi -> (lo, hi)
                  | _ -> fail ())
              | _ -> fail ())
          | _ -> fail ())
        shard_spec
    in
    let catalog = Srv.Catalog.of_seeded ?shard wk in
    let config =
      {
        Srv.Server.default_config with
        host;
        port;
        max_in_flight;
        max_queue;
        default_deadline_ms;
        idle_timeout_s = (if idle_timeout_s > 0. then Some idle_timeout_s else None);
        frame_timeout_s =
          (if frame_timeout_s > 0. then Some frame_timeout_s else None);
      }
    in
    let stop_requested = stop_on_signal () in
    let server =
      try Srv.Server.start ~config catalog
      with e -> network_error "cannot listen on %s:%d: %s" host port (describe_exn e)
    in
    (* Machine-parseable bound-port line, first and flushed: orchestrators
       (sqp route --spawn, the cluster tests, CI) parse exactly this. *)
    status "SQP_SERVE_PORT=%d\n" (Srv.Server.port server);
    status "sqp serve: listening on %s:%d (%d in flight, queue %d)\n" host
      (Srv.Server.port server) max_in_flight max_queue;
    (match Srv.Catalog.shard_range catalog with
    | Some (zlo, zhi) -> status "shard: z=[%d,%d]\n" zlo zhi
    | None -> ());
    status "catalog: %s\n"
      (String.concat ", "
         (Srv.Catalog.names catalog
         @ List.map
             (fun n -> n ^ " (live)")
             (Srv.Catalog.live_names catalog)));
    while not !stop_requested do
      Thread.delay 0.05
    done;
    status "sqp serve: draining...\n";
    Srv.Server.stop server;
    status "sqp serve: drained; final metrics:\n";
    status "%s"
      (Sqp_obs.Metrics.to_text
         (Sqp_obs.Metrics.snapshot (Sqp_obs.Metrics.global ())));
    status "sqp serve: bye.\n"
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve the seeded catalog over the binary wire protocol until \
          SIGTERM/SIGINT, then drain gracefully (in-flight queries finish, \
          new ones are refused) and exit 0.")
    Term.(
      const run $ host_arg $ port_arg ~default:7477 $ in_flight_arg $ queue_arg $ deadline_arg $ points_arg $ objects_arg
      $ idle_timeout_arg $ frame_timeout_arg $ shard_arg)

(* The canonical join plan, as a client would send it over the wire. *)
let join_wire_plan =
  Sqp_relalg.Wire.(
    Project
      ( [ "rid"; "sid" ],
        Spatial_join { zl = "zr"; zr = "zs"; left = Scan "R"; right = Scan "S" } ))

let shell_cmd =
  let module R = Sqp_relalg in
  let commands_arg =
    Arg.(
      value & opt_all string []
      & info [ "c"; "command" ] ~docv:"CMD"
          ~doc:
            "Run $(docv) and exit (repeatable, in order) instead of reading \
             commands interactively.")
  in
  let deadline_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "deadline-ms" ] ~docv:"MS" ~doc:"Deadline shipped with each query.")
  in
  let help_text =
    "commands:\n\
    \  range X1 Y1 X2 Y2   points inside the box (inclusive corners)\n\
    \  join                candidate overlapping (rid, sid) pairs of R and S\n\
    \  explain join        the join's optimized plan, without executing\n\
    \  analyze join        EXPLAIN ANALYZE of the join (executes remotely)\n\
    \  health              server liveness, catalog and load\n\
    \  insert X Y ID       add point (X, Y) with payload ID to live table L\n\
    \  delete X Y          remove the first live entry at exactly (X, Y)\n\
    \  lrange X1 Y1 X2 Y2  snapshot range query over live table L\n\
    \  create-index        online rebuild of L's packed index (concurrent-safe)\n\
    \  recover             ask a degraded (read-only) server to reopen its\n\
    \                      stores and resume mutations\n\
    \  help                this text\n\
    \  quit                leave"
  in
  let run host port commands deadline_ms =
    check_port "shell" ~listen:false port;
    check_deadline "shell" deadline_ms;
    let failed = ref false in
    let print_rows rel =
      Format.printf "%a(%d tuples)@." R.Relation.pp rel (R.Relation.cardinality rel)
    in
    (* Any failure — remote or transport — is one diagnostic line; the
       session stays alive so the user can retry or `recover`. *)
    let report = function
      | Ok () -> ()
      | Error e ->
          failed := true;
          Printf.printf "error: %s\n" (Srv.Client.error_to_string e)
    in
    let exec client line =
      match String.split_on_char ' ' (String.trim line) |> List.filter (( <> ) "") with
      | [] -> true
      | [ "quit" ] | [ "exit" ] -> false
      | [ "help" ] ->
          print_endline help_text;
          true
      | [ "health" ] ->
          report
            (Result.map
               (fun (h : Srv.Protocol.health) ->
                 Printf.printf
                   "%s: %s\n  mode %s; in flight %d, queued %d, served %d\n"
                   (if h.Srv.Protocol.healthy then "healthy" else "UNHEALTHY")
                   h.Srv.Protocol.detail
                   (if h.Srv.Protocol.mode = "" then "unknown"
                    else h.Srv.Protocol.mode)
                   h.Srv.Protocol.in_flight h.Srv.Protocol.queued
                   h.Srv.Protocol.served;
                 if not h.Srv.Protocol.healthy then failed := true)
               (Srv.Client.health client));
          true
      | [ "join" ] ->
          report (Result.map print_rows (Srv.Client.query ?deadline_ms client join_wire_plan));
          true
      | [ "explain"; "join" ] ->
          report
            (Result.map print_string (Srv.Client.explain ?deadline_ms client join_wire_plan));
          true
      | [ "analyze"; "join" ] ->
          report
            (Result.map
               (fun (rendered, rows) ->
                 print_string rendered;
                 print_rows rows)
               (Srv.Client.analyze ?deadline_ms client join_wire_plan));
          true
      | [ "insert"; x; y; id ] -> (
          match (int_of_string_opt x, int_of_string_opt y, int_of_string_opt id) with
          | Some x, Some y, Some id ->
              report
                (Result.map
                   (fun (applied, seq) ->
                     Printf.printf "ack: applied %d, seq %d\n" applied seq)
                   (Srv.Client.insert ?deadline_ms client ~table:"L"
                      [ ([| x; y |], id) ]));
              true
          | _ ->
              failed := true;
              print_endline "insert wants three integers; try: insert 10 20 7";
              true)
      | [ "delete"; x; y ] -> (
          match (int_of_string_opt x, int_of_string_opt y) with
          | Some x, Some y ->
              report
                (Result.map
                   (fun (applied, seq) ->
                     Printf.printf "ack: applied %d, seq %d\n" applied seq)
                   (Srv.Client.delete ?deadline_ms client ~table:"L" [ [| x; y |] ]));
              true
          | _ ->
              failed := true;
              print_endline "delete wants two integers; try: delete 10 20";
              true)
      | [ "lrange"; x1; y1; x2; y2 ] -> (
          match
            (int_of_string_opt x1, int_of_string_opt y1, int_of_string_opt x2,
             int_of_string_opt y2)
          with
          | Some x1, Some y1, Some x2, Some y2 ->
              report
                (Result.map print_rows
                   (Srv.Client.live_range ?deadline_ms client ~table:"L"
                      ~lo:[| min x1 x2; min y1 y2 |]
                      ~hi:[| max x1 x2; max y1 y2 |]));
              true
          | _ ->
              failed := true;
              print_endline "lrange wants four integers; try: lrange 0 0 100 100";
              true)
      | [ "create-index" ] ->
          report
            (Result.map
               (fun (applied, seq) ->
                 Printf.printf "index rebuilt: %d entries at seq %d\n" applied seq)
               (Srv.Client.create_index ?deadline_ms client ~table:"L"));
          true
      | [ "recover" ] ->
          report (Result.map print_endline (Srv.Client.recover client));
          true
      | [ "range"; x1; y1; x2; y2 ] -> (
          match
            (int_of_string_opt x1, int_of_string_opt y1, int_of_string_opt x2,
             int_of_string_opt y2)
          with
          | Some x1, Some y1, Some x2, Some y2 ->
              report
                (Result.map print_rows
                   (Srv.Client.range_search ?deadline_ms client
                      ~lo:[| min x1 x2; min y1 y2 |]
                      ~hi:[| max x1 x2; max y1 y2 |]));
              true
          | _ ->
              failed := true;
              print_endline "range wants four integers; try: range 100 100 300 300";
              true)
      | cmd :: _ ->
          failed := true;
          Printf.printf "unknown command %S (try: help)\n" cmd;
          true
    in
    let client =
      try Srv.Client.connect ~host ~port ()
      with e -> network_error "cannot connect to %s:%d: %s" host port (describe_exn e)
    in
    Fun.protect
      ~finally:(fun () -> Srv.Client.close client)
      (fun () ->
        if commands <> [] then List.iter (fun c -> ignore (exec client c)) commands
        else begin
          Printf.printf "connected to %s:%d; 'help' lists commands\n%!" host port;
          let rec repl () =
            print_string "sqp> ";
            flush stdout;
            match input_line stdin with
            | line -> if exec client line then repl ()
            | exception End_of_file -> ()
          in
          repl ()
        end);
    if !failed then Stdlib.exit 1
  in
  Cmd.v
    (Cmd.info "shell"
       ~doc:
         "Interactive (or $(b,-c)-scripted) client for a running $(b,sqp \
          serve); exits 1 if any command draws an error.")
    Term.(const run $ host_arg $ port_arg ~default:7477 $ commands_arg $ deadline_arg)

(* {1 Cluster: shard spawning and the router daemon} *)

(* Spawn [sqp serve --port 0 --shard spec] as a child process and parse
   the machine-parseable SQP_SERVE_PORT= line off its stdout.  A drain
   thread keeps reading so the child can never block on a full pipe. *)
type spawned_shard = { pid : int; port : int; drain : Thread.t }

let spawn_shard ~points ~objects spec =
  let exe = Sys.executable_name in
  let args =
    [ exe; "serve"; "--port"; "0"; "--points"; string_of_int points;
      "--objects"; string_of_int objects; "--shard"; spec ]
  in
  let out_r, out_w = Unix.pipe ~cloexec:false () in
  let pid = Unix.create_process exe (Array.of_list args) Unix.stdin out_w Unix.stderr in
  Unix.close out_w;
  let ic = Unix.in_channel_of_descr out_r in
  let prefix = "SQP_SERVE_PORT=" in
  let rec find_port () =
    let line = input_line ic in
    if String.length line > String.length prefix
       && String.sub line 0 (String.length prefix) = prefix
    then
      int_of_string
        (String.sub line (String.length prefix)
           (String.length line - String.length prefix))
    else find_port ()
  in
  match find_port () with
  | exception _ ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid);
      failwith (Printf.sprintf "shard %s failed to report a port" spec)
  | port ->
      let drain =
        Thread.create
          (fun () -> try while true do ignore (input_line ic) done with _ -> ())
          ()
      in
      { pid; port; drain }

let stop_shard s =
  (try Unix.kill s.pid Sys.sigterm with Unix.Unix_error _ -> ());
  ignore (try Unix.waitpid [] s.pid with Unix.Unix_error _ -> (s.pid, Unix.WEXITED 0));
  Thread.join s.drain

let spawn_even_shards ~points ~objects n =
  List.init n (fun i -> spawn_shard ~points ~objects (Printf.sprintf "%d/%d" i n))

let route_cmd =
  let spawn_arg =
    Arg.(
      value & opt int 0
      & info [ "spawn" ] ~docv:"N"
          ~doc:
            "Spawn $(docv) local shard processes ($(b,sqp serve --shard I/N)) \
             on ephemeral ports and route over them; they are terminated on \
             shutdown.")
  in
  let shards_arg =
    Arg.(
      value & opt (some string) None
      & info [ "shards" ] ~docv:"LIST"
          ~doc:
            "Comma-separated host:port list of already-running shards, in \
             z-range order; shard i must have been started with $(b,--shard \
             i/N).  Mutually exclusive with $(b,--spawn).")
  in
  let points_arg =
    Arg.(
      value & opt int 5000
      & info [ "points" ] ~docv:"N" ~doc:"Points in each spawned shard's seeds.")
  in
  let objects_arg =
    Arg.(
      value & opt int 48
      & info [ "objects" ] ~docv:"N"
          ~doc:"Objects per join side in each spawned shard's seeds.")
  in
  let run host port spawn shards points objects =
    check_port "route" ~listen:true port;
    let space = Sqp_workload.Seeded.standard_space in
    let spawned, endpoints =
      match (spawn, shards) with
      | n, None when n > 0 ->
          (* refuse bad seeds here, before any shard starts *)
          ignore (seeded_workload "route" ~points ~objects);
          let ss = spawn_even_shards ~points ~objects n in
          (ss, List.map (fun s -> ("127.0.0.1", s.port)) ss)
      | 0, Some list ->
          ( [],
            List.map
              (fun hp ->
                let bad () = usage_error "route" "bad endpoint %S (want HOST:PORT)" hp in
                match String.rindex_opt hp ':' with
                | Some i -> (
                    match int_of_string_opt (String.sub hp (i + 1) (String.length hp - i - 1)) with
                    | Some p when valid_port ~listen:false p -> (String.sub hp 0 i, p)
                    | _ -> bad ())
                | None -> bad ())
              (String.split_on_char ',' list) )
      | _ -> usage_error "route" "give exactly one of --spawn N or --shards LIST"
    in
    let map = Srv.Shard_map.even space endpoints in
    let config = { Sqp_cluster.Router.default_config with host; port } in
    let stop_requested = stop_on_signal () in
    let router =
      try Sqp_cluster.Router.start ~config ~space ~map ()
      with e ->
        List.iter stop_shard spawned;
        network_error "router did not start: %s" (describe_exn e)
    in
    status "SQP_ROUTE_PORT=%d\n" (Sqp_cluster.Router.port router);
    status "sqp route: listening on %s:%d (epoch %d, %d shards)\n" host
      (Sqp_cluster.Router.port router)
      map.Srv.Shard_map.epoch (List.length endpoints);
    List.iteri
      (fun i (e : Srv.Shard_map.entry) ->
        status "  shard %d: %s:%d z=[%d,%d]\n" i e.host e.port e.zlo e.zhi)
      map.Srv.Shard_map.entries;
    while not !stop_requested do
      Thread.delay 0.05
    done;
    status "sqp route: draining...\n";
    Sqp_cluster.Router.stop router;
    List.iter stop_shard spawned;
    status "sqp route: drained; final metrics:\n";
    status "%s"
      (Sqp_obs.Metrics.to_text
         (Sqp_obs.Metrics.snapshot (Sqp_obs.Metrics.global ())));
    status "sqp route: bye.\n"
  in
  Cmd.v
    (Cmd.info "route"
       ~doc:
         "Run the cluster router over N z-range shards (spawned locally or \
          already running), speaking the same wire protocol as a single \
          server, until SIGTERM/SIGINT; then drain, stop spawned shards and \
          exit 0.")
    Term.(
      const run $ host_arg $ port_arg ~default:7478 $ spawn_arg $ shards_arg
      $ points_arg $ objects_arg)

let () =
  let info =
    Cmd.info "sqp" ~version:"1.0.0"
      ~doc:
        "Reproduction of Orenstein's 'Spatial Query Processing in an \
         Object-Oriented Database System' (SIGMOD 1986)."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            figures_cmd; figure6_cmd; experiment_cmd; compare_cmd;
            strategies_cmd; policies_cmd; partial_match_cmd; euv_cmd;
            coarsen_cmd; proximity_cmd; join_cmd; overlay_cmd; ccl_cmd;
            interference_cmd; fill_cmd; three_d_cmd; curves_cmd; object_join_cmd;
            all_cmd; query_cmd; fsck_cmd; serve_cmd; shell_cmd; route_cmd;
          ]))
