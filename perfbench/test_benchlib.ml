open Benchlib

let feq = Alcotest.float 1e-9
let sample n = Array.init n (fun i -> float_of_int (i + 1))

let tail_case n ~pct ~value ~beyond () =
  match tail (sample n) with
  | None -> Alcotest.fail "expected a tail"
  | Some t ->
      Alcotest.check feq "pct" pct t.pct;
      Alcotest.check feq "value" value t.value;
      Alcotest.(check int) "beyond" beyond t.beyond;
      Alcotest.(check int) "n" n t.n

let tail_rule () =
  (* 100 samples: p95 leaves 5 beyond, p90 exactly 10 *)
  tail_case 100 ~pct:90. ~value:90. ~beyond:10 ();
  tail_case 1000 ~pct:99. ~value:990. ~beyond:10 ();
  tail_case 10_000 ~pct:99.9 ~value:9990. ~beyond:10 ();
  (* 280 samples: p99 is rank 278 (2 beyond), p95 rank 266 (14 beyond) *)
  tail_case 280 ~pct:95. ~value:266. ~beyond:14 ();
  tail_case 20 ~pct:50. ~value:10. ~beyond:10 ();
  Alcotest.(check bool) "19 samples: no tail" true (tail (sample 19) = None);
  Alcotest.(check bool) "empty: no tail" true (tail [||] = None)

let tail_unsorted () =
  let a = Array.init 100 (fun i -> float_of_int ((i * 37) mod 100)) in
  let before = Array.copy a in
  (match tail a with
  | Some t -> Alcotest.check feq "p90 of 0..99" 89. t.value
  | None -> Alcotest.fail "expected a tail");
  Alcotest.(check bool) "input untouched" true (a = before)

let median_mean () =
  Alcotest.check feq "odd" 2. (median [| 3.; 1.; 2. |]);
  Alcotest.check feq "even" 2.5 (median [| 4.; 1.; 3.; 2. |]);
  Alcotest.check feq "mean" 2.5 (mean [| 4.; 1.; 3.; 2. |]);
  Alcotest.(check bool) "empty median" true (Float.is_nan (median [||]))

let self_time_cases () =
  Alcotest.check feq "no children" 10. (self_time ~parent:(0., 10.) ~children:[]);
  Alcotest.check feq "disjoint children" 5.
    (self_time ~parent:(0., 10.) ~children:[ (1., 3.); (6., 9.) ]);
  Alcotest.check feq "overlapping children counted once" 4.
    (self_time ~parent:(0., 10.) ~children:[ (2., 6.); (4., 8.) ]);
  Alcotest.check feq "nested child inside another" 6.
    (self_time ~parent:(0., 10.) ~children:[ (2., 6.); (3., 4.) ]);
  Alcotest.check feq "children clipped to the parent" 6.
    (self_time ~parent:(0., 10.) ~children:[ (-5., 2.); (8., 20.) ]);
  Alcotest.check feq "child outside the parent" 10.
    (self_time ~parent:(0., 10.) ~children:[ (11., 12.) ]);
  Alcotest.check feq "fully covered" 0.
    (self_time ~parent:(0., 10.) ~children:[ (0., 10.) ])

let residual_cases () =
  (* 10 requests, 450 ms of client round trips, 20 ms inside the server *)
  Alcotest.check feq "stall-sized residual" 43.
    (residual_ms ~rtt_total_ms:450. ~server_total_us:20_000. ~requests:10);
  Alcotest.check feq "no residual" 0.
    (residual_ms ~rtt_total_ms:5. ~server_total_us:5_000. ~requests:5);
  Alcotest.check feq "clock disagreement is not clamped" (-1.)
    (residual_ms ~rtt_total_ms:1. ~server_total_us:2_000. ~requests:1);
  Alcotest.(check bool) "no requests" true
    (Float.is_nan (residual_ms ~rtt_total_ms:1. ~server_total_us:1. ~requests:0))

let names () =
  List.iter
    (fun n -> Alcotest.(check bool) n true (valid_metric_name n))
    [ "range_p50_ms"; "wire.rtt_ms"; "gc.major_per_kop"; "a-b"; "9lives" ];
  List.iter
    (fun n -> Alcotest.(check bool) (Printf.sprintf "%S" n) false (valid_metric_name n))
    [ ""; "_x"; ".x"; "-x"; "a b"; "a/b"; "p50%"; "a\"b"; String.make 65 'a' ];
  Alcotest.(check bool) "64 chars ok" true (valid_metric_name (String.make 64 'a'));
  List.iter
    (fun u -> Alcotest.(check bool) u true (valid_unit u))
    [ "ms"; "s"; "ops/s"; "rows/s"; "%"; "ratio"; "MiB" ];
  List.iter
    (fun u -> Alcotest.(check bool) (Printf.sprintf "%S" u) false (valid_unit u))
    [ ""; "m s"; String.make 17 'a' ]

let result_line () =
  let m name value unit_ = { name; value; unit_ } in
  Alcotest.(check string) "line"
    "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
     {\"ops_s\": {\"value\": 2.5, \"unit\": \"ops/s\"}}}"
    (result_json ~correct:true ~attempted:3 ~failed:0 [ m "ops_s" 2.5 "ops/s" ]);
  let raises f =
    match f () with _ -> false | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "bad name" true
    (raises (fun () -> result_json ~correct:true ~attempted:1 ~failed:0 [ m "a b" 1. "s" ]));
  Alcotest.(check bool) "repeated name" true
    (raises (fun () ->
         result_json ~correct:true ~attempted:1 ~failed:0 [ m "a" 1. "s"; m "a" 2. "s" ]));
  Alcotest.(check bool) "nan" true
    (raises (fun () -> result_json ~correct:true ~attempted:1 ~failed:0 [ m "a" nan "s" ]))

let dump () =
  let text =
    "SQP_SERVE_PORT=1\n\
     sqp serve: drained; final metrics:\n\
     decompose.cache.hits                         180\n\
     server.in_flight                             0 (gauge)\n\
     server.latency_us                            count=202 sum=418401 mean=2071.3\n\
    \                                               <= 255        1\n\
     sqp serve: bye.\n"
  in
  let d = parse_dump text in
  Alcotest.(check int) "counter" 180 (dump_count d "decompose.cache.hits");
  Alcotest.(check int) "gauge" 0 (dump_count d "server.in_flight");
  Alcotest.(check int) "hist count" 202 (dump_count d "server.latency_us");
  Alcotest.(check int) "hist sum" 418401 (dump_sum d "server.latency_us");
  Alcotest.(check int) "absent" 0 (dump_count d "server.shed");
  Alcotest.(check int) "nothing before the marker" 0 (dump_count d "SQP_SERVE_PORT=1")

let () =
  Alcotest.run "benchlib"
    [
      ( "samples",
        [
          Alcotest.test_case "tail percentile keeps 10 beyond" `Quick tail_rule;
          Alcotest.test_case "tail of an unsorted sample" `Quick tail_unsorted;
          Alcotest.test_case "median and mean" `Quick median_mean;
        ] );
      ("spans", [ Alcotest.test_case "self time subtraction" `Quick self_time_cases ]);
      ("wire", [ Alcotest.test_case "rtt minus server residual" `Quick residual_cases ]);
      ( "output",
        [
          Alcotest.test_case "metric-name validation" `Quick names;
          Alcotest.test_case "result line" `Quick result_line;
          Alcotest.test_case "final-metrics dump" `Quick dump;
        ] );
    ]
