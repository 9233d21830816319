module S = Sqp_storage

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* {1 Stats} *)

let test_stats () =
  let s = S.Stats.create () in
  s.S.Stats.physical_reads <- 3;
  s.S.Stats.physical_writes <- 2;
  check_int "total" 5 (S.Stats.total_accesses s);
  s.S.Stats.pool_hits <- 3;
  s.S.Stats.pool_misses <- 1;
  Alcotest.(check (float 0.001)) "hit ratio" 0.75 (S.Stats.hit_ratio s);
  let snap = S.Stats.snapshot s in
  s.S.Stats.physical_reads <- 10;
  check_int "snapshot independent" 3 snap.S.Stats.physical_reads;
  let d = S.Stats.diff ~after:s ~before:snap in
  check_int "diff" 7 d.S.Stats.physical_reads;
  S.Stats.reset s;
  check_int "reset" 0 s.S.Stats.physical_reads

let test_stats_zero_ratio () =
  Alcotest.(check (float 0.001)) "no traffic" 0.0 (S.Stats.hit_ratio (S.Stats.create ()))

let fill a b c d e f =
  let s = S.Stats.create () in
  s.S.Stats.physical_reads <- a;
  s.S.Stats.physical_writes <- b;
  s.S.Stats.allocations <- c;
  s.S.Stats.frees <- d;
  s.S.Stats.pool_hits <- e;
  s.S.Stats.pool_misses <- f;
  s

let test_stats_diff_aliasing () =
  (* diff reads both records at call time: aliased arguments are a
     degenerate interval and must yield all zeros, not garbage. *)
  let s = fill 5 4 3 2 1 9 in
  let d = S.Stats.diff ~after:s ~before:s in
  check "aliased diff is zero" true (d = S.Stats.create ());
  (* The supported interval idiom: snapshot first, then mutate. *)
  let before = S.Stats.snapshot s in
  s.S.Stats.physical_reads <- 15;
  s.S.Stats.pool_misses <- 10;
  let d = S.Stats.diff ~after:s ~before in
  check_int "interval reads" 10 d.S.Stats.physical_reads;
  check_int "interval misses" 1 d.S.Stats.pool_misses;
  check_int "untouched fields zero" 0 d.S.Stats.physical_writes

let test_stats_add_sum () =
  let a = fill 1 2 3 4 5 6 and b = fill 10 20 30 40 50 60 in
  let c = S.Stats.add a b in
  check "add is field-wise" true (c = fill 11 22 33 44 55 66);
  check "add leaves inputs alone" true (a = fill 1 2 3 4 5 6);
  check "sum of none is zero" true (S.Stats.sum [] = S.Stats.create ());
  check "sum folds add" true (S.Stats.sum [ a; b; c ] = fill 22 44 66 88 110 132)

(* {1 Pager} *)

let test_pager_basic () =
  let p = S.Pager.create () in
  let id1 = S.Pager.alloc p "a" and id2 = S.Pager.alloc p "b" in
  check "distinct ids" true (id1 <> id2);
  Alcotest.(check string) "read" "a" (S.Pager.read p id1);
  S.Pager.write p id1 "c";
  Alcotest.(check string) "after write" "c" (S.Pager.read p id1);
  check_int "page count" 2 (S.Pager.page_count p);
  S.Pager.free p id1;
  check_int "after free" 1 (S.Pager.page_count p);
  check "mem" true (S.Pager.mem p id2);
  check "freed" false (S.Pager.mem p id1)

let test_pager_counts () =
  let p = S.Pager.create () in
  let id = S.Pager.alloc p 0 in
  ignore (S.Pager.read p id);
  ignore (S.Pager.read p id);
  S.Pager.write p id 1;
  let s = S.Pager.stats p in
  check_int "reads" 2 s.S.Stats.physical_reads;
  check_int "writes (alloc + write)" 2 s.S.Stats.physical_writes;
  check_int "allocs" 1 s.S.Stats.allocations

let test_pager_errors () =
  let p = S.Pager.create () in
  List.iter
    (fun f ->
      match f () with
      | _ -> Alcotest.fail "expected Invalid_argument"
      | exception Invalid_argument _ -> ())
    [
      (fun () -> ignore (S.Pager.read p 42));
      (fun () -> S.Pager.write p 42 0);
      (fun () -> S.Pager.free p 42);
    ]

(* {1 Buffer pool} *)

let test_pool_hits () =
  let p = S.Pager.create () in
  let id = S.Pager.alloc p "x" in
  let pool = S.Buffer_pool.create ~capacity:2 p in
  ignore (S.Buffer_pool.get pool id);
  ignore (S.Buffer_pool.get pool id);
  ignore (S.Buffer_pool.get pool id);
  let s = S.Pager.stats p in
  check_int "one miss" 1 s.S.Stats.pool_misses;
  check_int "two hits" 2 s.S.Stats.pool_hits;
  check_int "one physical read" 1 s.S.Stats.physical_reads

let test_pool_eviction_lru () =
  let p = S.Pager.create () in
  let ids = Array.init 3 (fun i -> S.Pager.alloc p i) in
  let pool = S.Buffer_pool.create ~policy:S.Buffer_pool.Lru ~capacity:2 p in
  ignore (S.Buffer_pool.get pool ids.(0));
  ignore (S.Buffer_pool.get pool ids.(1));
  ignore (S.Buffer_pool.get pool ids.(0)); (* 0 is now most recent *)
  ignore (S.Buffer_pool.get pool ids.(2)); (* evicts 1 *)
  let before = (S.Pager.stats p).S.Stats.physical_reads in
  ignore (S.Buffer_pool.get pool ids.(0)); (* hit *)
  check_int "0 still resident" before (S.Pager.stats p).S.Stats.physical_reads;
  ignore (S.Buffer_pool.get pool ids.(1)); (* miss *)
  check_int "1 was evicted" (before + 1) (S.Pager.stats p).S.Stats.physical_reads

let test_pool_eviction_fifo () =
  let p = S.Pager.create () in
  let ids = Array.init 3 (fun i -> S.Pager.alloc p i) in
  let pool = S.Buffer_pool.create ~policy:S.Buffer_pool.Fifo ~capacity:2 p in
  ignore (S.Buffer_pool.get pool ids.(0));
  ignore (S.Buffer_pool.get pool ids.(1));
  ignore (S.Buffer_pool.get pool ids.(0)); (* recency must not matter *)
  ignore (S.Buffer_pool.get pool ids.(2)); (* evicts 0 (first in) *)
  let before = (S.Pager.stats p).S.Stats.physical_reads in
  ignore (S.Buffer_pool.get pool ids.(1));
  check_int "1 resident" before (S.Pager.stats p).S.Stats.physical_reads;
  ignore (S.Buffer_pool.get pool ids.(0));
  check_int "0 evicted" (before + 1) (S.Pager.stats p).S.Stats.physical_reads

let test_pool_clock_runs () =
  let p = S.Pager.create () in
  let ids = Array.init 8 (fun i -> S.Pager.alloc p i) in
  let pool = S.Buffer_pool.create ~policy:S.Buffer_pool.Clock ~capacity:3 p in
  (* Just exercise the sweep logic under churn. *)
  for round = 0 to 5 do
    Array.iteri
      (fun i id -> if (i + round) mod 2 = 0 then ignore (S.Buffer_pool.get pool id))
      ids
  done;
  check "resident bounded" true (S.Buffer_pool.resident pool <= 3)

let test_pool_clock_second_chance () =
  let p = S.Pager.create () in
  let ids = Array.init 4 (fun i -> S.Pager.alloc p i) in
  let pool = S.Buffer_pool.create ~policy:S.Buffer_pool.Clock ~capacity:2 p in
  ignore (S.Buffer_pool.get pool ids.(0));
  ignore (S.Buffer_pool.get pool ids.(1));
  (* Both bits set: this sweep clears them and evicts 0; afterwards frame 1
     is resident with a CLEAR bit and freshly-installed 2 with a SET bit. *)
  ignore (S.Buffer_pool.get pool ids.(2));
  (* Next miss must evict 1 (clear bit) and give 2 its second chance, even
     though 2 was installed later. *)
  ignore (S.Buffer_pool.get pool ids.(3));
  let before = (S.Pager.stats p).S.Stats.physical_reads in
  ignore (S.Buffer_pool.get pool ids.(2));
  check_int "2 survived via its reference bit" before
    (S.Pager.stats p).S.Stats.physical_reads

let test_pool_writeback () =
  let p = S.Pager.create () in
  let ids = Array.init 3 (fun i -> S.Pager.alloc p (string_of_int i)) in
  let pool = S.Buffer_pool.create ~capacity:2 p in
  S.Buffer_pool.update pool ids.(0) "dirty0";
  ignore (S.Buffer_pool.get pool ids.(1));
  ignore (S.Buffer_pool.get pool ids.(2)); (* evicts 0, must write back *)
  S.Buffer_pool.drop pool;
  Alcotest.(check string) "written back" "dirty0" (S.Pager.read p ids.(0))

let test_pool_flush () =
  let p = S.Pager.create () in
  let id = S.Pager.alloc p "x" in
  let pool = S.Buffer_pool.create ~capacity:2 p in
  S.Buffer_pool.update pool id "y";
  S.Buffer_pool.flush pool;
  S.Buffer_pool.drop pool;
  Alcotest.(check string) "flushed" "y" (S.Pager.read p id)

let test_pool_discard () =
  let p = S.Pager.create () in
  let id1 = S.Pager.alloc p "a" and id2 = S.Pager.alloc p "b" in
  let pool = S.Buffer_pool.create ~capacity:2 p in
  S.Buffer_pool.update pool id1 "dirty";
  S.Buffer_pool.discard pool id1;
  S.Pager.free p id1;
  (* Filling the pool must not try to write the discarded frame back. *)
  ignore (S.Buffer_pool.get pool id2);
  S.Buffer_pool.flush pool;
  check "survives" true (S.Pager.mem p id2)

let test_pool_counters_survive_drop_discard () =
  (* The counters live in the pager's stats, not in pool frames: dropping
     or discarding frames must not lose or rewind any accounting. *)
  let p = S.Pager.create () in
  let id1 = S.Pager.alloc p "a" and id2 = S.Pager.alloc p "b" in
  let pool = S.Buffer_pool.create ~capacity:2 p in
  ignore (S.Buffer_pool.get pool id1);
  ignore (S.Buffer_pool.get pool id1);
  ignore (S.Buffer_pool.get pool id2);
  let before = S.Stats.snapshot (S.Pager.stats p) in
  check_int "misses before" 2 before.S.Stats.pool_misses;
  check_int "hits before" 1 before.S.Stats.pool_hits;
  S.Buffer_pool.discard pool id2;
  S.Buffer_pool.drop pool;
  check "drop/discard change no counters" true
    (S.Stats.diff ~after:(S.Pager.stats p) ~before = S.Stats.create ());
  (* After a drop every frame is cold again: the next get is a miss and
     keeps counting on top of the old totals. *)
  ignore (S.Buffer_pool.get pool id1);
  let after = S.Pager.stats p in
  check_int "miss counted after drop" 3 after.S.Stats.pool_misses;
  check_int "hits preserved across drop" 1 after.S.Stats.pool_hits;
  check_int "physical reads preserved and counted" 3 after.S.Stats.physical_reads

let test_pool_capacity_invalid () =
  let p = S.Pager.create () in
  match S.Buffer_pool.create ~capacity:0 p with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

(* Property: pool semantics = pager semantics under random ops. *)

let prop_pool_transparent =
  QCheck2.Test.make ~name:"pool reads = direct reads under random workload"
    ~count:100
    QCheck2.Gen.(
      pair (int_range 1 4)
        (list_size (int_bound 60) (pair (int_bound 7) (int_bound 99))))
    (fun (capacity, ops) ->
      let p = S.Pager.create () in
      let ids = Array.init 8 (fun i -> S.Pager.alloc p i) in
      let mirror = Array.init 8 (fun i -> i) in
      let pool = S.Buffer_pool.create ~capacity p in
      List.for_all
        (fun (slot, v) ->
          if v mod 2 = 0 then begin
            S.Buffer_pool.update pool ids.(slot) v;
            mirror.(slot) <- v;
            true
          end
          else S.Buffer_pool.get pool ids.(slot) = mirror.(slot))
        ops)

let () =
  Alcotest.run "storage"
    [
      ( "stats",
        [
          Alcotest.test_case "counters" `Quick test_stats;
          Alcotest.test_case "zero ratio" `Quick test_stats_zero_ratio;
          Alcotest.test_case "diff under aliasing" `Quick test_stats_diff_aliasing;
          Alcotest.test_case "add and sum" `Quick test_stats_add_sum;
        ] );
      ( "pager",
        [
          Alcotest.test_case "basics" `Quick test_pager_basic;
          Alcotest.test_case "counting" `Quick test_pager_counts;
          Alcotest.test_case "errors" `Quick test_pager_errors;
        ] );
      ( "buffer pool",
        [
          Alcotest.test_case "hits and misses" `Quick test_pool_hits;
          Alcotest.test_case "LRU eviction" `Quick test_pool_eviction_lru;
          Alcotest.test_case "FIFO eviction" `Quick test_pool_eviction_fifo;
          Alcotest.test_case "CLOCK sweep" `Quick test_pool_clock_runs;
          Alcotest.test_case "CLOCK second chance" `Quick test_pool_clock_second_chance;
          Alcotest.test_case "write-back on eviction" `Quick test_pool_writeback;
          Alcotest.test_case "flush" `Quick test_pool_flush;
          Alcotest.test_case "discard" `Quick test_pool_discard;
          Alcotest.test_case "counters survive drop/discard" `Quick
            test_pool_counters_survive_drop_discard;
          Alcotest.test_case "bad capacity" `Quick test_pool_capacity_invalid;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_pool_transparent ] );
    ]
