(* The observability layer: span nesting and balance, the null sink's
   zero-allocation guarantee, domain-safe metrics with associative
   snapshot merging, and the EXPLAIN ANALYZE accounting invariant (per
   node page accesses sum exactly to the run's Stats totals). *)

module Obs = Sqp_obs
module Trace = Obs.Trace
module Metrics = Obs.Metrics
module W = Sqp_workload
module R = Sqp_relalg
module Stats = Sqp_storage.Stats

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let starts_with prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* {1 Spans} *)

let test_span_nesting () =
  let t = Trace.create Trace.Collect in
  Trace.with_span t "outer" (fun () ->
      Trace.with_span t "inner" (fun () ->
          check_int "two open" 2 (Trace.open_depth t));
      Trace.with_span t "inner2" (fun () -> ()));
  check_int "balanced" 0 (Trace.open_depth t);
  let spans = Trace.spans t in
  (* Finish order: children complete before their parent. *)
  check "names in finish order" true
    (List.map (fun s -> s.Trace.name) spans = [ "inner"; "inner2"; "outer" ]);
  check "depths" true
    (List.map (fun s -> s.Trace.depth) spans = [ 1; 1; 0 ]);
  (* An unmatched span_end is a no-op, not an underflow. *)
  Trace.span_end t;
  check_int "still balanced" 0 (Trace.open_depth t)

let test_span_attrs_and_timing () =
  let t = Trace.create Trace.Collect in
  let clock = ref 10.0 in
  Trace.set_clock t (fun () -> !clock);
  Trace.span_begin t "timed";
  clock := 10.5;
  Trace.span_end ~attrs:(fun () -> [ ("rows", Trace.Int 7) ]) t;
  (match Trace.spans t with
  | [ s ] ->
      check "start" true (s.Trace.start = 10.0);
      check "duration" true (abs_float (s.Trace.duration -. 0.5) < 1e-9);
      check "attrs" true (s.Trace.attrs = [ ("rows", Trace.Int 7) ])
  | _ -> Alcotest.fail "expected exactly one span")

let test_span_survives_exception () =
  let t = Trace.create Trace.Collect in
  (try
     Trace.with_span t "boom" (fun () -> failwith "inside")
   with Failure _ -> ());
  check_int "closed on raise" 0 (Trace.open_depth t);
  check_int "recorded anyway" 1 (List.length (Trace.spans t))

let test_ring_bounded () =
  let t = Trace.create ~capacity:4 Trace.Collect in
  for i = 1 to 10 do
    Trace.with_span t (Printf.sprintf "s%d" i) (fun () -> ())
  done;
  let names = List.map (fun s -> s.Trace.name) (Trace.spans t) in
  check "keeps the most recent, oldest first" true
    (names = [ "s7"; "s8"; "s9"; "s10" ]);
  check_int "dropped count" 6 (Trace.dropped t);
  Trace.clear t;
  check_int "cleared" 0 (List.length (Trace.spans t));
  check_int "dropped reset" 0 (Trace.dropped t)

let test_null_sink_allocates_nothing () =
  let t = Trace.null in
  check "disabled" false (Trace.enabled t);
  (* The shape instrumented code takes when tracing is off: one enabled
     check, then plain begin/end (attribute thunks are only built — and
     only wrapped in an option — behind the guard).  Warm up first so any
     one-time allocation is out of the way. *)
  let tick () =
    if Trace.enabled t then
      Trace.span_end ~attrs:(fun () -> [ ("k", Trace.Int 1) ]) t
    else begin
      Trace.span_begin t "x";
      Trace.span_end t;
      Trace.with_span t "y" ignore
    end
  in
  tick ();
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    tick ()
  done;
  let delta = Gc.minor_words () -. before in
  check "null path allocates nothing" true (delta < 100.0)

let test_chrome_export () =
  let t = Trace.create Trace.Collect in
  let clock = ref 1.0 in
  Trace.set_clock t (fun () -> !clock);
  Trace.with_span t "outer"
    (fun () ->
      clock := 1.25;
      Trace.with_span
        ~attrs:(fun () -> [ ("n", Trace.Int 3); ("tag", Trace.Str "a") ])
        t "inner"
        (fun () -> clock := 2.0));
  let json = Trace.to_chrome_json (Trace.spans t) in
  check "has traceEvents" true
    (String.length json > 0
    && String.sub json 0 1 = "{"
    && contains json "\"traceEvents\""
    && contains json "\"inner\""
    && contains json "\"tag\"")

(* {1 The instrumentation guard} *)

(* With the ambient tracer disabled (the default), instrumented library
   code must not even create metrics; enabling it turns the counters
   on. *)
let test_global_guard () =
  Trace.set_global Trace.null;
  Metrics.reset (Metrics.global ());
  let pager = Sqp_storage.Pager.create () in
  let id = Sqp_storage.Pager.alloc pager 42 in
  check "no metrics while disabled" true
    (List.for_all
       (fun (name, _) -> not (starts_with "pager." name))
       (Metrics.snapshot (Metrics.global ())));
  let t = Trace.create Trace.Collect in
  Trace.set_global t;
  ignore (Sqp_storage.Pager.read pager id);
  Trace.set_global Trace.null;
  check_int "reads counted while enabled" 1
    (Metrics.counter_value (Metrics.counter (Metrics.global ()) "pager.physical_reads"))

(* {1 Metrics} *)

let test_metric_kinds () =
  let r = Metrics.create () in
  ignore (Metrics.counter r "m");
  (try
     ignore (Metrics.gauge r "m");
     Alcotest.fail "kind clash not detected"
   with Invalid_argument _ -> ());
  let h = Metrics.histogram r "h" in
  List.iter (Metrics.observe h) [ 0; 1; 1; 5; 1000; -3 ];
  match List.assoc "h" (Metrics.snapshot r) with
  | Metrics.Histogram_v { count; sum; buckets } ->
      check_int "count" 6 count;
      check_int "sum (negative clamped)" 1007 sum;
      check "buckets ascending" true
        (let bounds = List.map fst buckets in
         List.sort compare bounds = bounds)
  | _ -> Alcotest.fail "expected histogram reading"

let test_shared_registry_across_domains () =
  let r = Metrics.create () in
  let c = Metrics.counter r "shared.hits" in
  let g = Metrics.gauge r "shared.depth" in
  let domains =
    List.init 4 (fun i ->
        Domain.spawn (fun () ->
            for _ = 1 to 1000 do
              Metrics.incr c
            done;
            Metrics.record_max g (i + 1)))
  in
  List.iter Domain.join domains;
  check_int "no lost increments" 4000 (Metrics.counter_value c);
  check_int "high-water mark" 4 (Metrics.gauge_value g)

let test_merge_associativity_across_domains () =
  (* Each domain owns a private registry (the per-shard pattern) and
     reports a snapshot; merging must not care how we group them. *)
  let snapshots =
    List.map Domain.join
      (List.init 3 (fun i ->
           Domain.spawn (fun () ->
               let r = Metrics.create () in
               Metrics.add (Metrics.counter r "work.items") ((i + 1) * 10);
               Metrics.record_max (Metrics.gauge r "work.depth") (i + 2);
               let h = Metrics.histogram r "work.sizes" in
               List.iter (Metrics.observe h) [ i; (i * 3) + 1; 7 ];
               Metrics.snapshot r)))
  in
  match snapshots with
  | [ a; b; c ] ->
      check "associative" true
        (Metrics.merge (Metrics.merge a b) c = Metrics.merge a (Metrics.merge b c));
      check "commutative" true (Metrics.merge a b = Metrics.merge b a);
      let total = Metrics.merge_all snapshots in
      (match List.assoc "work.items" total with
      | Metrics.Counter_v v -> check_int "counters add" 60 v
      | _ -> Alcotest.fail "counter");
      (match List.assoc "work.depth" total with
      | Metrics.Gauge_v v -> check_int "gauges max" 4 v
      | _ -> Alcotest.fail "gauge");
      (match List.assoc "work.sizes" total with
      | Metrics.Histogram_v { count; sum; _ } ->
          check_int "histogram count" 9 count;
          check_int "histogram sum" 36 sum
      | _ -> Alcotest.fail "histogram")
  | _ -> Alcotest.fail "expected three snapshots"

(* {1 EXPLAIN ANALYZE accounting} *)

let stats_eq name (a : Stats.t) (b : Stats.t) =
  check name true
    (a.Stats.physical_reads = b.Stats.physical_reads
    && a.Stats.physical_writes = b.Stats.physical_writes
    && a.Stats.allocations = b.Stats.allocations
    && a.Stats.frees = b.Stats.frees
    && a.Stats.pool_hits = b.Stats.pool_hits
    && a.Stats.pool_misses = b.Stats.pool_misses)

let analyze_fixture () =
  let wk = W.Seeded.standard ~n_objects:24 () in
  let stored name renames objects =
    R.Stored.store
      (R.Ops.rename renames
         (R.Query.decompose_relation ~options:wk.W.Seeded.decompose_options
            ~name wk.W.Seeded.space objects))
  in
  let r = stored "R" [ ("id", "rid"); ("z", "zr") ] wk.W.Seeded.left_objects in
  let s = stored "S" [ ("id", "sid"); ("z", "zs") ] wk.W.Seeded.right_objects in
  ( r,
    s,
    R.Plan.Project
      ( [ "rid"; "sid" ],
        R.Plan.Spatial_join
          {
            zl = "zr";
            zr = "zs";
            left = R.Plan.Scan_stored r;
            right = R.Plan.Scan_stored s;
          } ) )

let test_analyze_sequential () =
  let r, s, plan = analyze_fixture () in
  let before_r = Stats.snapshot (R.Stored.stats r)
  and before_s = Stats.snapshot (R.Stored.stats s) in
  let a = R.Plan.run_analyze plan in
  (* Golden invariant: per-node exclusive page counts sum exactly to the
     run's total, which equals the externally measured Stats delta. *)
  stats_eq "tree sums to total" (R.Plan.sum_pages a.R.Plan.report)
    a.R.Plan.total_pages;
  let external_delta =
    Stats.sum
      [
        Stats.diff ~after:(Stats.snapshot (R.Stored.stats r)) ~before:before_r;
        Stats.diff ~after:(Stats.snapshot (R.Stored.stats s)) ~before:before_s;
      ]
  in
  stats_eq "total equals external Stats delta" external_delta
    a.R.Plan.total_pages;
  check "run touched pages at all" true
    (Stats.total_accesses a.R.Plan.total_pages > 0
    || a.R.Plan.total_pages.Stats.pool_misses > 0)

let test_analyze_agrees_with_run () =
  let _, _, plan = analyze_fixture () in
  let direct = R.Plan.run plan in
  let a = R.Plan.run_analyze plan in
  check "run_analyze computes what run computes" true
    (R.Relation.equal_contents direct a.R.Plan.result)

let () =
  Alcotest.run "obs"
    [
      ( "trace",
        [
          Alcotest.test_case "nesting and balance" `Quick test_span_nesting;
          Alcotest.test_case "attrs and timing" `Quick test_span_attrs_and_timing;
          Alcotest.test_case "exception safety" `Quick test_span_survives_exception;
          Alcotest.test_case "bounded ring" `Quick test_ring_bounded;
          Alcotest.test_case "null sink allocates nothing" `Quick
            test_null_sink_allocates_nothing;
          Alcotest.test_case "chrome export" `Quick test_chrome_export;
          Alcotest.test_case "global guard" `Quick test_global_guard;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "kind clash" `Quick test_metric_kinds;
          Alcotest.test_case "shared registry across domains" `Quick
            test_shared_registry_across_domains;
          Alcotest.test_case "merge associativity across domains" `Quick
            test_merge_associativity_across_domains;
        ] );
      ( "explain-analyze",
        [
          Alcotest.test_case "sequential accounting" `Quick test_analyze_sequential;
          Alcotest.test_case "agrees with run" `Quick test_analyze_agrees_with_run;
        ] );
    ]
