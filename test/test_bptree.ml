module B = Sqp_zorder.Bitstring
module Ints = Sqp_btree.Bptree.Make (Sqp_btree.Bptree.Int_key)
module Bits = Sqp_btree.Bptree.Make (Sqp_btree.Bptree.Bitstring_key)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let expect_ok t =
  match Ints.check_invariants t with
  | Ok () -> ()
  | Error m -> Alcotest.failf "invariant violation: %s" m

let small () = Ints.create ~leaf_capacity:4 ~internal_capacity:4 ()

let test_empty () =
  let t = small () in
  check_int "length" 0 (Ints.length t);
  check "find" true (Ints.find t 5 = None);
  check_int "height" 1 (Ints.height t);
  check_int "leaves" 1 (Ints.leaf_count t);
  check "delete missing" false (Ints.delete t 5);
  expect_ok t

let test_insert_find () =
  let t = small () in
  List.iter (fun k -> Ints.insert t k (k * 10)) [ 5; 3; 8; 1; 9; 2; 7; 4; 6; 0 ];
  expect_ok t;
  check_int "length" 10 (Ints.length t);
  for k = 0 to 9 do
    check "find" true (Ints.find t k = Some (k * 10))
  done;
  check "missing" true (Ints.find t 10 = None);
  check "mem" true (Ints.mem t 5)

let test_sorted_iteration () =
  let t = small () in
  List.iter (fun k -> Ints.insert t k k) [ 50; 30; 80; 10; 90; 20; 70; 40; 60; 0 ];
  Alcotest.(check (list int)) "sorted"
    [ 0; 10; 20; 30; 40; 50; 60; 70; 80; 90 ]
    (List.map fst (Ints.to_list t))

let test_split_growth () =
  let t = small () in
  for k = 0 to 99 do
    Ints.insert t k k
  done;
  expect_ok t;
  check "taller than a leaf" true (Ints.height t > 1);
  check "many leaves" true (Ints.leaf_count t >= 25);
  check_int "length" 100 (Ints.length t)

let test_random_insert_delete () =
  let rng = Sqp_workload.Rng.create ~seed:123 in
  let t = small () in
  let present = Hashtbl.create 64 in
  for _ = 1 to 500 do
    let k = Sqp_workload.Rng.int rng 200 in
    if Sqp_workload.Rng.bool rng then begin
      if not (Hashtbl.mem present k) then begin
        Ints.insert t k k;
        Hashtbl.replace present k ()
      end
    end
    else begin
      let deleted = Ints.delete t k in
      check "delete reflects membership" (Hashtbl.mem present k) deleted;
      Hashtbl.remove present k
    end;
    expect_ok t
  done;
  check_int "final size" (Hashtbl.length present) (Ints.length t);
  (* With distinct keys, rebalancing keeps every leaf at least half full
     (unless the tree is a single leaf). *)
  let pages = Ints.leaf_pages t in
  if List.length pages > 1 then
    List.iter
      (fun (_, keys) -> check "leaf occupancy" true (List.length keys >= 2))
      pages

let test_delete_to_empty () =
  let t = small () in
  for k = 0 to 63 do
    Ints.insert t k k
  done;
  for k = 0 to 63 do
    check "deleted" true (Ints.delete t k);
    expect_ok t
  done;
  check_int "empty" 0 (Ints.length t);
  check_int "height collapsed" 1 (Ints.height t)

let test_duplicates () =
  let t = small () in
  List.iter (fun v -> Ints.insert t 7 v) [ 1; 2; 3 ];
  Ints.insert t 5 0;
  Ints.insert t 9 0;
  expect_ok t;
  check_int "find_all" 3 (List.length (Ints.find_all t 7));
  Alcotest.(check (list int)) "duplicates in insertion order" [ 1; 2; 3 ]
    (Ints.find_all t 7);
  (* More duplicates than a leaf holds: oversized leaf is tolerated. *)
  for v = 4 to 12 do
    Ints.insert t 7 v
  done;
  check_int "all dups" 12 (List.length (Ints.find_all t 7));
  check "delete one" true (Ints.delete t 7);
  check_int "one fewer" 11 (List.length (Ints.find_all t 7))

let test_bulk_load () =
  let t = small () in
  let entries = Array.init 100 (fun i -> (i * 2, i)) in
  Ints.bulk_load t entries;
  expect_ok t;
  check_int "length" 100 (Ints.length t);
  check "even key present" true (Ints.find t 84 = Some 42);
  check "odd key absent" true (Ints.find t 101 = None)

let test_bulk_load_validation () =
  let t = small () in
  Ints.insert t 1 1;
  (match Ints.bulk_load t [| (1, 1) |] with
  | _ -> Alcotest.fail "expected failure on non-empty tree"
  | exception Invalid_argument _ -> ());
  let t2 = small () in
  match Ints.bulk_load t2 [| (2, 0); (1, 0) |] with
  | _ -> Alcotest.fail "expected failure on unsorted input"
  | exception Invalid_argument _ -> ()

let test_bulk_load_fill () =
  let t = Ints.create ~leaf_capacity:10 ~internal_capacity:8 () in
  Ints.bulk_load ~fill:0.5 t (Array.init 100 (fun i -> (i, i)));
  expect_ok t;
  (* fill 0.5 of 10 = 5 per leaf -> 20 leaves. *)
  check_int "leaves" 20 (Ints.leaf_count t)

let test_cursor_seek () =
  let t = small () in
  List.iter (fun k -> Ints.insert t k k) [ 10; 20; 30; 40; 50 ];
  let c = Ints.seek t 25 in
  (match Ints.cursor_peek c with
  | Some (30, _) -> ()
  | _ -> Alcotest.fail "expected 30");
  Ints.cursor_next c;
  (match Ints.cursor_peek c with
  | Some (40, _) -> ()
  | _ -> Alcotest.fail "expected 40");
  (* Seek exact. *)
  let c2 = Ints.seek t 30 in
  (match Ints.cursor_peek c2 with
  | Some (30, _) -> ()
  | _ -> Alcotest.fail "expected exact 30");
  (* Seek past the end. *)
  let c3 = Ints.seek t 99 in
  check "end" true (Ints.cursor_peek c3 = None);
  Ints.cursor_next c3 (* must not raise *)

let test_cursor_full_scan () =
  let t = small () in
  for k = 0 to 63 do
    Ints.insert t (63 - k) k
  done;
  let c = Ints.seek_first t in
  let rec collect acc =
    match Ints.cursor_peek c with
    | None -> List.rev acc
    | Some (k, _) ->
        Ints.cursor_next c;
        collect (k :: acc)
  in
  Alcotest.(check (list int)) "full scan in order" (List.init 64 Fun.id) (collect [])

let test_counters () =
  let t = Ints.create ~leaf_capacity:4 ~internal_capacity:4 () in
  for k = 0 to 63 do
    Ints.insert t k k
  done;
  Ints.reset_counters t;
  ignore (Ints.find t 13);
  let c = Ints.counters t in
  check_int "one leaf read per lookup" 1 c.Ints.leaf_reads;
  check "some internal reads" true (c.Ints.internal_reads >= 1)

let test_leaf_pages_preserve_counters () =
  let t = small () in
  for k = 0 to 63 do
    Ints.insert t k k
  done;
  Ints.reset_counters t;
  let before = (Ints.io_stats t).Sqp_storage.Stats.physical_reads in
  let pages = Ints.leaf_pages t in
  check "pages nonempty" true (List.length pages > 1);
  check_int "no counted reads" 0 (Ints.counters t).Ints.leaf_reads;
  check_int "physical restored" before (Ints.io_stats t).Sqp_storage.Stats.physical_reads;
  (* Keys across pages are sorted and complete. *)
  let all = List.concat_map snd pages in
  Alcotest.(check (list int)) "all keys in order" (List.init 64 Fun.id) all

let test_bitstring_prefix_separators () =
  (* The defining prefix-B+-tree property: separators are as short as the
     shortest distinguishing prefix, never longer than the keys. *)
  let t = Bits.create ~leaf_capacity:4 ~internal_capacity:4 () in
  let keys =
    List.init 64 (fun i -> B.of_int i ~width:12)
  in
  List.iter (fun k -> Bits.insert t k ()) keys;
  (match Bits.check_invariants t with
  | Ok () -> ()
  | Error m -> Alcotest.failf "invariants: %s" m);
  check_int "all present" 64 (Bits.length t);
  List.iter (fun k -> check "find" true (Bits.find t k = Some ())) keys

let test_create_validation () =
  List.iter
    (fun f ->
      match f () with
      | _ -> Alcotest.fail "expected Invalid_argument"
      | exception Invalid_argument _ -> ())
    [
      (fun () -> ignore (Ints.create ~leaf_capacity:1 ~internal_capacity:4 ()));
      (fun () -> ignore (Ints.create ~leaf_capacity:4 ~internal_capacity:2 ()));
    ]

(* {1 Byte-budget (compressed) page model} *)

let mk_budget ?(compressed = true) ?(page_bytes = 256) () =
  {
    Sqp_btree.Bptree.page_bytes;
    compressed;
    entry_overhead = 6;
    fixed_entry_bytes = 4;
  }

(* Sorted, deduplicated z values of seeded points — the workload whose
   shared prefixes front coding is built for. *)
let seeded_keys n =
  let space = Sqp_zorder.Space.make ~dims:2 ~depth:10 in
  let rng = Sqp_workload.Rng.create ~seed:77 in
  let pts = Sqp_workload.Datagen.uniform rng ~side:1024 ~n ~dims:2 in
  let zs = Array.map (Sqp_zorder.Interleave.shuffle space) pts in
  Array.sort B.compare zs;
  let dedup =
    Array.to_list zs
    |> List.fold_left
         (fun acc z ->
           match acc with
           | prev :: _ when B.equal prev z -> acc
           | _ -> z :: acc)
         []
    |> List.rev
  in
  Array.of_list dedup

let test_budget_create_validation () =
  List.iter
    (fun budget ->
      match Bits.create ~budget ~leaf_capacity:4 ~internal_capacity:4 () with
      | _ -> Alcotest.fail "malformed budget should raise"
      | exception Invalid_argument _ -> ())
    [
      mk_budget ~page_bytes:8 ();
      { (mk_budget ()) with entry_overhead = -1 };
      { (mk_budget ()) with fixed_entry_bytes = -1 };
    ];
  let b = mk_budget () in
  let t = Bits.create ~budget:b ~leaf_capacity:4 ~internal_capacity:4 () in
  check "budget accessor" true (Bits.budget t = Some b);
  check "no budget" true (Ints.budget (small ()) = None)

let test_budget_insert_churn () =
  (* The byte model must keep the invariants through ordinary mutation,
     not just bulk builds. *)
  let t = Ints.create ~budget:(mk_budget ~page_bytes:64 ()) ~leaf_capacity:4
      ~internal_capacity:4 ()
  in
  let expect_ok' t =
    match Ints.check_invariants t with
    | Ok () -> ()
    | Error m -> Alcotest.failf "budget invariants: %s" m
  in
  let rng = Sqp_workload.Rng.create ~seed:321 in
  let present = Hashtbl.create 64 in
  for _ = 1 to 600 do
    let k = Sqp_workload.Rng.int rng 300 in
    if Sqp_workload.Rng.int rng 3 > 0 then begin
      if not (Hashtbl.mem present k) then begin
        Ints.insert t k (k * 7);
        Hashtbl.replace present k ()
      end
    end
    else begin
      check "delete reflects membership" (Hashtbl.mem present k)
        (Ints.delete t k);
      Hashtbl.remove present k
    end;
    expect_ok' t
  done;
  check_int "final size" (Hashtbl.length present) (Ints.length t);
  Hashtbl.iter
    (fun k () -> check "find" true (Ints.find t k = Some (k * 7)))
    present

let test_budget_bulk_density () =
  let keys = seeded_keys 3000 in
  let entries = Array.map (fun k -> (k, ())) keys in
  let build compressed =
    let t =
      Bits.create ~budget:(mk_budget ~compressed ()) ~leaf_capacity:4
        ~internal_capacity:4 ()
    in
    Bits.bulk_load t entries;
    (match Bits.check_invariants t with
    | Ok () -> ()
    | Error m -> Alcotest.failf "bulk invariants: %s" m);
    t
  in
  let comp = build true and fixed = build false in
  (* Same contents either way. *)
  check_int "comp length" (Array.length keys) (Bits.length comp);
  check "same keys" true
    (List.for_all2
       (fun (a, ()) (b, ()) -> B.equal a b)
       (Bits.to_list comp) (Bits.to_list fixed));
  (* Front coding packs more entries per leaf, so fewer leaves. *)
  check "denser leaves" true
    (Bits.avg_leaf_entries comp > Bits.avg_leaf_entries fixed);
  check "fewer leaves" true (Bits.leaf_count comp < Bits.leaf_count fixed)

let test_budget_cursor_scan () =
  let keys = seeded_keys 1000 in
  let t =
    Bits.create ~budget:(mk_budget ()) ~leaf_capacity:4 ~internal_capacity:4 ()
  in
  Bits.bulk_load t (Array.map (fun k -> (k, ())) keys);
  let c = Bits.seek_first t in
  Array.iter
    (fun k ->
      (match Bits.cursor_peek c with
      | Some (k', ()) -> check "scan order" true (B.equal k k')
      | None -> Alcotest.fail "cursor ended early");
      Bits.cursor_next c)
    keys;
  check "exhausted" true (Bits.cursor_peek c = None)

(* Properties *)

let prop_model_check =
  QCheck2.Test.make ~name:"tree = sorted association list (random ops)" ~count:60
    QCheck2.Gen.(list_size (int_bound 150) (pair bool (int_bound 60)))
    (fun ops ->
      let t = Ints.create ~leaf_capacity:4 ~internal_capacity:5 () in
      let model = Hashtbl.create 16 in
      List.iter
        (fun (is_insert, k) ->
          if is_insert then begin
            if not (Hashtbl.mem model k) then begin
              Ints.insert t k k;
              Hashtbl.replace model k ()
            end
          end
          else begin
            ignore (Ints.delete t k);
            Hashtbl.remove model k
          end)
        ops;
      let expected = List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) model []) in
      Ints.check_invariants t = Ok ()
      && List.map fst (Ints.to_list t) = expected)

let prop_bulk_equals_insert =
  QCheck2.Test.make ~name:"bulk_load = repeated insert" ~count:60
    QCheck2.Gen.(list_size (int_bound 80) (int_bound 1000))
    (fun keys ->
      let keys = List.sort_uniq compare keys in
      let t1 = Ints.create ~leaf_capacity:6 ~internal_capacity:5 () in
      Ints.bulk_load t1 (Array.of_list (List.map (fun k -> (k, k)) keys));
      let t2 = Ints.create ~leaf_capacity:6 ~internal_capacity:5 () in
      List.iter (fun k -> Ints.insert t2 k k) keys;
      Ints.check_invariants t1 = Ok ()
      && Ints.to_list t1 = Ints.to_list t2)

let () =
  Alcotest.run "bptree"
    [
      ( "unit",
        [
          Alcotest.test_case "empty" `Quick test_empty;
          Alcotest.test_case "insert and find" `Quick test_insert_find;
          Alcotest.test_case "sorted iteration" `Quick test_sorted_iteration;
          Alcotest.test_case "splits" `Quick test_split_growth;
          Alcotest.test_case "random insert/delete invariants" `Quick test_random_insert_delete;
          Alcotest.test_case "delete to empty" `Quick test_delete_to_empty;
          Alcotest.test_case "duplicates" `Quick test_duplicates;
          Alcotest.test_case "bulk load" `Quick test_bulk_load;
          Alcotest.test_case "bulk load validation" `Quick test_bulk_load_validation;
          Alcotest.test_case "bulk load fill factor" `Quick test_bulk_load_fill;
          Alcotest.test_case "cursor seek" `Quick test_cursor_seek;
          Alcotest.test_case "cursor full scan" `Quick test_cursor_full_scan;
          Alcotest.test_case "access counters" `Quick test_counters;
          Alcotest.test_case "leaf_pages side-effect free" `Quick test_leaf_pages_preserve_counters;
          Alcotest.test_case "bitstring prefix separators" `Quick test_bitstring_prefix_separators;
          Alcotest.test_case "create validation" `Quick test_create_validation;
        ] );
      ( "byte budget",
        [
          Alcotest.test_case "create validation" `Quick
            test_budget_create_validation;
          Alcotest.test_case "insert/delete churn" `Quick
            test_budget_insert_churn;
          Alcotest.test_case "bulk density vs fixed-width" `Quick
            test_budget_bulk_density;
          Alcotest.test_case "cursor scan" `Quick test_budget_cursor_scan;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_model_check; prop_bulk_equals_insert ] );
    ]
