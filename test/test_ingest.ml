(* Differential torture suite for the live-ingest path.

   Every seeded mixed schedule from [Workload_gen] is replayed against
   the live table and an in-memory oracle side by side: each read must
   return identical rows, stashed snapshots must stay frozen while
   mutations continue, the sequential path must produce bit-identical
   scan statistics across replays, and the whole battery runs again on a
   durable store with fail-stop crashes injected at every I/O of chosen
   batches (seeds via SQP_INGEST_SEEDS, mirroring SQP_CRASH_SEEDS).
   Online index build is verified bit-identical against a from-scratch
   build, including crash-mid-backfill, and a multi-domain run checks
   that snapshots never observe a half-applied batch. *)

module L = Sqp_btree.Live
module Zindex = Sqp_btree.Zindex
module Persist = Sqp_btree.Persist
module Faulty_io = Sqp_storage.Faulty_io
module Journal = Sqp_storage.Journal
module Z = Sqp_zorder
module WG = Workload_gen

let check = Alcotest.(check bool)

let seeds =
  match Sys.getenv_opt "SQP_INGEST_SEEDS" with
  | None | Some "" -> [ 1; 7; 42 ]
  | Some s -> (
      match String.split_on_char ',' s |> List.filter_map int_of_string_opt with
      | [] -> [ 1; 7; 42 ]
      | l -> l)

let space = Z.Space.make ~dims:2 ~depth:8

let encode = string_of_int

let decode = int_of_string

let tmp name = Filename.concat (Filename.get_temp_dir_name ()) ("sqp_ingest_" ^ name)

let remove p = if Sys.file_exists p then Sys.remove p

let with_store name f =
  let path = tmp name in
  let aux =
    [ path; path ^ ".tmp"; Journal.journal_path path;
      Journal.journal_path (path ^ ".tmp") ]
  in
  let clean () = List.iter remove aux in
  clean ();
  Fun.protect ~finally:clean (fun () -> f path)

let copy_file src dst =
  let ic = open_in_bin src in
  let n = in_channel_length ic in
  let buf = really_input_string ic n in
  close_in ic;
  let oc = open_out_bin dst in
  output_string oc buf;
  close_out oc

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let entries_of t = L.snapshot_entries (L.snapshot t)

let pp_entries es =
  String.concat ";"
    (List.map
       (fun (p, v) ->
         Printf.sprintf "(%s):%d"
           (String.concat "," (Array.to_list (Array.map string_of_int p)))
           v)
       es)

let check_rows what expected got =
  if expected <> got then
    Alcotest.failf "%s: oracle [%s] vs live [%s]" what (pp_entries expected)
      (pp_entries got)

(* {1 Cowtree vs a sorted-list oracle} *)

module IK = struct
  type t = int

  let compare = compare
end

module C = Sqp_btree.Cowtree.Make (IK)

let cowtree_differential () =
  let rng = Sqp_workload.Rng.create ~seed:5 in
  (* Oracle: sorted assoc list; insert after equals, remove first equal. *)
  let insert_o l k v =
    let rec go = function
      | (k', v') :: rest when k' <= k -> (k', v') :: go rest
      | rest -> (k, v) :: rest
    in
    go l
  in
  let remove_o l k =
    let rec go = function
      | [] -> None
      | (k', _) :: rest when k' = k -> Some rest
      | e :: rest -> Option.map (fun r -> e :: r) (go rest)
    in
    go l
  in
  let t = ref (C.empty ~leaf_capacity:4 ~internal_capacity:4 ()) in
  let o = ref [] in
  let snaps = ref [] in
  for i = 0 to 999 do
    let k = Sqp_workload.Rng.int rng 50 in
    if Sqp_workload.Rng.int rng 3 = 0 then begin
      match (C.remove !t k, remove_o !o k) with
      | None, None -> ()
      | Some t', Some o' ->
          t := t';
          o := o'
      | _ -> Alcotest.failf "step %d: remove presence disagrees (key %d)" i k
    end
    else begin
      t := C.insert !t k i;
      o := insert_o !o k i
    end;
    (match C.check_invariants !t with
    | Ok () -> ()
    | Error e -> Alcotest.failf "step %d: invariant broken: %s" i e);
    if C.to_list !t <> !o then Alcotest.failf "step %d: contents diverge" i;
    if C.length !t <> List.length !o then Alcotest.failf "step %d: length diverges" i;
    if i mod 100 = 0 then snaps := (!t, !o) :: !snaps
  done;
  (* Old roots are frozen: every stashed snapshot still answers. *)
  List.iter
    (fun (t, o) ->
      check "snapshot frozen" true (C.to_list t = o);
      List.iter
        (fun k ->
          let expect = List.filter_map (fun (k', v) -> if k' = k then Some v else None) o in
          check "find_all on snapshot" true (C.find_all t k = expect))
        [ 0; 7; 23; 49 ])
    !snaps;
  (* Bulk build must agree with the incremental tree at every size,
     including exact multiples of the fanout. *)
  List.iter
    (fun n ->
      let entries = Array.init n (fun i -> (i / 3, i)) in
      let b = C.of_sorted_array ~leaf_capacity:4 ~internal_capacity:4 entries in
      (match C.check_invariants b with
      | Ok () -> ()
      | Error e -> Alcotest.failf "bulk %d: invariant broken: %s" n e);
      check
        (Printf.sprintf "bulk build of %d entries" n)
        true
        (C.to_list b = Array.to_list entries))
    [ 0; 1; 4; 5; 16; 17; 64; 100; 256; 257 ]

(* Cursors: a walk from [seek_first] reads [to_list]; [cursor_reseek]
   from any position lands where a fresh [seek] of the target does,
   inside a leaf or across leaves, on trees full of duplicate keys and
   thinned by removals. *)
let cowtree_cursors () =
  let rng = Sqp_workload.Rng.create ~seed:9 in
  let rest c =
    let acc = ref [] in
    while C.cursor_valid c do
      acc := (C.cursor_key c, C.cursor_value c) :: !acc;
      C.cursor_next c
    done;
    List.rev !acc
  in
  for round = 0 to 39 do
    let t = ref (C.empty ~leaf_capacity:4 ~internal_capacity:3 ()) in
    for i = 0 to 40 + (round * 10) do
      let k = Sqp_workload.Rng.int rng 60 in
      if Sqp_workload.Rng.int rng 4 = 0 then
        match C.remove !t k with Some t' -> t := t' | None -> ()
      else t := C.insert !t k i
    done;
    let t = !t in
    check "walk = to_list" true (rest (C.seek_first t) = C.to_list t);
    for _ = 1 to 20 do
      let from = Sqp_workload.Rng.int rng 62 - 1 in
      let c = C.seek t from in
      (* step a little, then jump to a target above the key under c *)
      for _ = 1 to Sqp_workload.Rng.int rng 3 do
        C.cursor_next c
      done;
      if C.cursor_valid c then begin
        let target = C.cursor_key c + 1 + Sqp_workload.Rng.int rng 12 in
        C.cursor_reseek c target;
        if rest c <> rest (C.seek t target) then
          Alcotest.failf "round %d: reseek to %d left the cursor elsewhere" round target
      end
    done
  done;
  let c = C.seek_first (C.empty ()) in
  check "empty tree: no entry" false (C.cursor_valid c);
  C.cursor_next c;
  C.cursor_reseek c 5;
  check "still none" false (C.cursor_valid c);
  match C.cursor_key c with
  | _ -> Alcotest.fail "cursor_key at end did not raise"
  | exception Invalid_argument _ -> ()

(* A cursor counts the leaves it stands on: a walk of a bulk-built tree
   counts every leaf once, a step or re-seek inside its leaf adds
   nothing, and a re-seek counts only the leaf it lands on. *)
let cowtree_cursor_leaves () =
  let t =
    C.of_sorted_array ~leaf_capacity:4 ~internal_capacity:3
      (Array.init 100 (fun i -> (2 * i, i)))
  in
  let c = C.seek_first t in
  while C.cursor_valid c do
    C.cursor_next c
  done;
  Alcotest.(check int) "a walk reads every leaf" 25 (C.cursor_leaves c);
  let c = C.seek t 0 in
  Alcotest.(check int) "made on a leaf" 1 (C.cursor_leaves c);
  C.cursor_next c;
  C.cursor_reseek c 6;
  Alcotest.(check int) "steps and re-seeks inside the leaf" 1 (C.cursor_leaves c);
  C.cursor_reseek c 100;
  Alcotest.(check int) "a re-seek to leaf 12" 2 (C.cursor_leaves c);
  C.cursor_reseek c 107;
  C.cursor_next c;
  Alcotest.(check int) "onward to leaf 13" 3 (C.cursor_leaves c);
  Alcotest.(check int) "the empty tree has none" 0
    (C.cursor_leaves (C.seek_first (C.empty ())))

(* {1 Bulk load}

   [of_entries] leaves what one [apply] of the same inserts leaves on a
   fresh table, entries and sequence number, and what one insert per
   batch leaves too: in 1-, 2- and 3-d spaces whose keys run from 10 to
   61 bits (every byte of the radix sort's key), with runs of equal
   points in no particular order and one run longer than a leaf, and
   for no entries at all. *)
let bulk_load_matches_apply () =
  List.iter
    (fun (dims, depth) ->
      let space = Z.Space.make ~dims ~depth in
      let rng = Sqp_workload.Rng.create ~seed:((10 * dims) + depth) in
      let side = Z.Space.side space in
      let pixel () = Array.init dims (fun _ -> Sqp_workload.Rng.int rng side) in
      let base = Array.init 300 (fun _ -> pixel ()) in
      let entries =
        Array.init 500 (fun i ->
            ( (if i < 300 then base.(i)
               else if i < 450 then base.(Sqp_workload.Rng.int rng 300)
               else base.(7)),
              i ))
      in
      let what = Printf.sprintf "%d-d depth %d" dims depth in
      let bulk = L.of_entries ~encode ~decode space entries in
      let batch = L.create ~encode ~decode space in
      ignore
        (L.apply batch (Array.to_list (Array.map (fun (p, v) -> L.Insert (p, v)) entries)));
      let one_by_one = L.create ~encode ~decode space in
      Array.iter (fun (p, v) -> ignore (L.insert one_by_one p v)) entries;
      let contents t = L.snapshot_entries (L.snapshot t) in
      check (what ^ ": entries = one batch's") true (contents bulk = contents batch);
      check (what ^ ": entries = one insert a batch") true
        (contents bulk = contents one_by_one);
      Alcotest.(check int) (what ^ ": seq = one batch's") (L.seq batch) (L.seq bulk);
      let empty = L.of_entries ~encode ~decode space [||] in
      check (what ^ ": no entries = a fresh table") true
        (contents empty = contents (L.create ~encode ~decode space));
      Alcotest.(check int) (what ^ ": no entries, no batch") 0 (L.seq empty))
    [ (1, 12); (2, 5); (3, 4); (2, 28); (3, 19); (1, 61) ];
  match L.of_entries ~encode ~decode space [| ([| 3; 256 |], 0) |] with
  | _ -> Alcotest.fail "a point outside the space was loaded"
  | exception Invalid_argument _ -> ()

(* {1 Allocation}

   The live merge allocates its key ranges and one cursor, nothing per
   scanned entry, per jump or per leaf; native code makes minor-heap
   counts exact.  Over the whole space of a 16,200-row table (the size
   a serving benchmark's ingest run grows [L] to) with a no-op
   callback, that stays under 1,000 words. *)
let iteration_allocation () =
  Sqp_obs.Trace.set_global Sqp_obs.Trace.null;
  let space = Z.Space.make ~dims:2 ~depth:10 in
  let rng = Sqp_workload.Rng.create ~seed:4 in
  let pixel () = [| Sqp_workload.Rng.int rng 1024; Sqp_workload.Rng.int rng 1024 |] in
  let t = L.create ~encode ~decode space in
  ignore (L.apply t (List.init 5000 (fun i -> L.Insert (pixel (), i))));
  for b = 0 to 349 do
    ignore (L.apply t (List.init 32 (fun i -> L.Insert (pixel (), 5000 + (32 * b) + i))))
  done;
  Alcotest.(check int) "rows" 16_200 (L.length t);
  let snap = L.snapshot t in
  let whole = Sqp_geom.Box.make ~lo:[| 0; 0 |] ~hi:[| 1023; 1023 |] in
  let before = Gc.minor_words () in
  let stats = L.range_iter snap whole (fun _ -> ()) in
  let words = Gc.minor_words () -. before in
  Alcotest.(check (triple int int int)) "whole-space scan" (16_200, 1, 16_200)
    L.(stats.entries_scanned, stats.elements, stats.results);
  if words >= 1000. then
    Alcotest.failf "a whole-space live iteration allocated %.0f minor words" words

(* {1 Differential replay of mixed schedules} *)

let replay_op t o op =
  match op with
  | WG.Insert (p, v) ->
      ignore (L.insert t p v);
      WG.Oracle.insert o p v
  | WG.Delete p ->
      let live = L.delete t p and oracle = WG.Oracle.delete o p in
      if live <> oracle then Alcotest.failf "delete presence disagrees"
  | WG.Range box ->
      check_rows "range" (WG.Oracle.range o box) (fst (L.range_search (L.snapshot t) box))
  | WG.Scan -> check_rows "scan" (WG.Oracle.scan o) (entries_of t)

let differential seed () =
  let t = L.create ~encode ~decode space in
  let o = WG.Oracle.create space in
  let sched = WG.generate ~seed ~n:400 () in
  let stashes = ref [] in
  List.iteri
    (fun i op ->
      replay_op t o op;
      if i mod 50 = 0 then
        stashes := (i, L.snapshot t, WG.Oracle.copy o) :: !stashes)
    sched;
  check "oracle and live agree on size" true
    (WG.Oracle.length o = L.length t);
  (* Snapshot isolation: mutations since the stash must be invisible. *)
  let box = WG.random_box (Sqp_workload.Rng.create ~seed:(seed + 1)) ~side:256 ~dims:2 in
  List.iter
    (fun (i, snap, oc) ->
      check_rows
        (Printf.sprintf "stashed snapshot at op %d" i)
        (WG.Oracle.scan oc) (L.snapshot_entries snap);
      check_rows
        (Printf.sprintf "stashed range at op %d" i)
        (WG.Oracle.range oc box)
        (fst (L.range_search snap box)))
    !stashes

(* The sequential path must be deterministic down to its counters: two
   replays of one schedule yield bit-identical [scan_stats]. *)
let stats_deterministic seed () =
  let run () =
    let t = L.create ~encode ~decode space in
    let stats = ref [] in
    List.iter
      (fun op ->
        match op with
        | WG.Insert (p, v) -> ignore (L.insert t p v)
        | WG.Delete p -> ignore (L.delete t p)
        | WG.Range box ->
            stats := snd (L.range_search (L.snapshot t) box) :: !stats
        | WG.Scan -> ())
      (WG.generate ~seed ~n:300 ());
    List.rev !stats
  in
  let a = run () and b = run () in
  check "two replays produce identical scan stats" true (a = b)

(* The counters of one fixed schedule, pinned as literals: they were
   recorded when the table was keyed by bitstrings, so the int keys must
   walk Section 3.3's merge step for step, not just find the same rows.
   Each triple is (entries_scanned, elements, results). *)
let pinned_scan_stats () =
  let t = L.create ~encode ~decode space in
  let stats = ref [] in
  List.iter
    (fun op ->
      match op with
      | WG.Insert (p, v) -> ignore (L.insert t p v)
      | WG.Delete p -> ignore (L.delete t p)
      | WG.Range box -> stats := snd (L.range_search (L.snapshot t) box) :: !stats
      | WG.Scan -> ())
    (WG.generate ~seed:7 ~n:600 ());
  let stats =
    List.rev_map (fun s -> L.(s.entries_scanned, s.elements, s.results)) !stats
  in
  let sum f = List.fold_left (fun acc s -> acc + f s) 0 stats in
  let stat = Alcotest.(triple int int int) in
  let n = List.length stats in
  Alcotest.(check int) "ranges" 174 n;
  Alcotest.check (Alcotest.list stat) "last ranges"
    [
      (105, 377, 49); (37, 158, 9); (5, 54, 0); (17, 73, 4); (56, 293, 22);
      (29, 182, 6); (9, 31, 0); (64, 341, 26);
    ]
    (List.filteri (fun i _ -> i >= n - 8) stats);
  Alcotest.check stat "totals" (4796, 36894, 1576)
    (sum (fun (a, _, _) -> a), sum (fun (_, b, _) -> b), sum (fun (_, _, c) -> c))

(* {1 Checkpoint records, byte for byte}

   Digests of the 'M', 'Z' and 'L' records of a checkpointed table and
   one logged batch after it, recorded when base chunks were still
   encoded with the two-word packed codec: the record format and the
   greedy chunk packing are unchanged. *)

let store_records path =
  let s = Sqp_storage.File_pager.open_existing path in
  let acc = ref [] in
  Sqp_storage.File_pager.iter s (fun _ p -> acc := Bytes.to_string p :: !acc);
  Sqp_storage.File_pager.close s;
  List.rev !acc

let records_digest tag records =
  let rs = List.filter (fun r -> r.[0] = tag) records in
  ( List.length rs,
    Digest.to_hex
      (Digest.string
         (String.concat ""
            (List.map (fun r -> Printf.sprintf "%d:%s" (String.length r) r) rs))) )

let wide_points ~dims ~depth ~n =
  let rng = Sqp_workload.Rng.create ~seed:((dims * 100) + depth) in
  let coord () =
    let r = Sqp_workload.Rng.int rng in
    if depth <= 30 then r (1 lsl depth)
    else (r (1 lsl (depth - 30)) lsl 30) lor r (1 lsl 30)
  in
  Array.init n (fun _ -> Array.init dims (fun _ -> coord ()))

let golden_records () =
  let wk = Sqp_workload.Seeded.standard () in
  List.iter
    (fun (what, space, points, (nz, m, z, l)) ->
      with_store "golden" (fun path ->
          let t = L.create_durable ~encode ~decode ~path space in
          ignore (L.apply t (Array.to_list (Array.mapi (fun i p -> L.Insert (p, i)) points)));
          L.checkpoint t;
          let n = Array.length points in
          ignore
            (L.apply t
               (List.init 10 (fun i -> L.Insert (points.(i * 7 mod n), 100000 + i))
               @ List.init 5 (fun i -> L.Delete points.(i * 11 mod n))));
          L.close t;
          let records = store_records path in
          let pair = Alcotest.(pair int string) in
          Alcotest.check pair (what ^ ": M") (1, m) (records_digest 'M' records);
          Alcotest.check pair (what ^ ": Z") (nz, z) (records_digest 'Z' records);
          Alcotest.check pair (what ^ ": L") (1, l) (records_digest 'L' records)))
    [
      ( "seeded", wk.Sqp_workload.Seeded.space, wk.Sqp_workload.Seeded.points,
        ( 43, "aefb0d4dda55dcc71e9b947fe23d02e6", "c91b34ec8035f5712d8796f80ac5fb2b",
          "6d590c278a29afea71dac615b57c148d" ) );
      ( "1x61", Z.Space.make ~dims:1 ~depth:61, wide_points ~dims:1 ~depth:61 ~n:300,
        ( 4, "338f6f57fd7720fd14e2d4891e9f935b", "bf98536aa0d72a320275fbb65e9d288e",
          "8e9b6bc67039f14ae6f6e6b4ed7a869a" ) );
      ( "3x20", Z.Space.make ~dims:3 ~depth:20, wide_points ~dims:3 ~depth:20 ~n:300,
        ( 4, "6943dada57ccb00c78e828f7bcba0a15", "df0d8d5c5c24a5a1c6e01517672841a6",
          "b64092843069d693636d91343e360787" ) );
      ( "2x30", Z.Space.make ~dims:2 ~depth:30, wide_points ~dims:2 ~depth:30 ~n:300,
        ( 4, "817909a60754a22b9000f2229ab69e63", "49b4c6b44a2c71e68232d17c2287c61a",
          "a5bc9cd9179e38714e9216a6c6d8baa8" ) );
    ]

(* {1 The space bound: one int key per z value}

   [Space.make] refuses spaces wider than [Space.max_total_bits], so a
   table over one cannot be created; a store whose metadata names one
   is corrupt. *)

let expect_invalid what f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Invalid_argument" what
  | exception Invalid_argument _ -> ()

(* A store holding only a metadata record and, optionally, one more raw
   record — the shapes no shipped writer produces. *)
let craft_store path ~dims ~depth extra =
  let b = Buffer.create 16 in
  Buffer.add_char b 'M';
  Buffer.add_string b "SQPL1";
  Buffer.add_uint8 b dims;
  Buffer.add_uint8 b depth;
  Buffer.add_int64_be b 0L;
  let store = Sqp_storage.File_pager.create ~page_bytes:1024 path in
  ignore (Sqp_storage.File_pager.alloc store (Buffer.to_bytes b));
  Option.iter (fun r -> ignore (Sqp_storage.File_pager.alloc store r)) extra;
  Sqp_storage.File_pager.close store

let space_bound () =
  expect_invalid "a 62-bit space" (fun () -> Z.Space.make ~dims:2 ~depth:31);
  with_store "wide" (fun path ->
      List.iter
        (fun (dims, depth) ->
          craft_store path ~dims ~depth None;
          match L.open_durable ~encode ~decode ~path () with
          | _ -> Alcotest.failf "a %d x %d store opened" dims depth
          | exception Sqp_storage.Storage_error.Corrupt _ -> ())
        [ (2, 31); (1, 62); (2, 32); (255, 255) ];
      craft_store path ~dims:1 ~depth:61 None;
      let t = L.open_durable ~encode ~decode ~path () in
      check "a 61-bit store opens" true (L.length t = 0);
      L.close t);
  (* The legacy 'B' base chunk is gone: it reads as an unknown tag. *)
  with_store "legacy_b" (fun path ->
      let b = Bytes.of_string "B\000\000\000\000\000\000" in
      craft_store path ~dims:2 ~depth:8 (Some b);
      match L.open_durable ~encode ~decode ~path () with
      | _ -> Alcotest.fail "a 'B' record loaded"
      | exception Sqp_storage.Storage_error.Corrupt _ -> ())

(* The widest accepted spaces, 1-d depth 61 and 3-d depth 20 and 2-d
   depth 30 (60 bits): corner points exercise the key's order at both
   ends.  Rows and order against a brute-force scan in bitstring z
   order, in memory and through a checkpointed store. *)
let widest_space (dims, depth) =
  let s = Z.Space.make ~dims ~depth in
  let m = Z.Space.side s - 1 in
  let rng = Sqp_workload.Rng.create ~seed:63 in
  let coord () =
    match Sqp_workload.Rng.int rng 4 with
    | 0 -> 0
    | 1 -> m
    | 2 -> m - Sqp_workload.Rng.int rng 4
    | _ -> Sqp_workload.Rng.int rng (m + 1)
  in
  let points = List.init 200 (fun i -> (Array.init dims (fun _ -> coord ()), i)) in
  let by_z =
    List.stable_sort
      (fun (p, _) (q, _) ->
        Z.Bitstring.compare (Z.Interleave.shuffle s p) (Z.Interleave.shuffle s q))
      points
  in
  let box lo hi = (Array.init dims lo, Array.init dims hi) in
  let boxes =
    [
      box (fun _ -> 0) (fun _ -> m);
      box (fun _ -> m - 3) (fun _ -> m);
      box (fun _ -> 0) (fun _ -> 3);
      box (fun i -> if i = 0 then m - 3 else 0) (fun i -> if i = 1 then 3 else m);
      box (fun i -> if i = 1 then m - 2 else 0) (fun i -> if i = 0 then 2 else m);
    ]
  in
  let check_table what t =
    check_rows (what ^ ": scan") by_z (entries_of t);
    List.iter
      (fun (lo, hi) ->
        let box = Sqp_geom.Box.make ~lo ~hi in
        check_rows (what ^ ": range")
          (List.filter (fun (p, _) -> Sqp_geom.Box.contains_point box p) by_z)
          (fst (L.range_search (L.snapshot t) box)))
      boxes;
    List.iter
      (fun (p, _) ->
        let first = snd (List.find (fun (q, _) -> q = p) by_z) in
        check (what ^ ": find") true (L.find (L.snapshot t) p = Some first))
      points
  in
  let t = L.create ~encode ~decode s in
  ignore (L.apply t (List.map (fun (p, v) -> L.Insert (p, v)) points));
  check_table "in memory" t;
  with_store "widest" (fun path ->
      let t = L.create_durable ~encode ~decode ~path s in
      ignore (L.apply t (List.map (fun (p, v) -> L.Insert (p, v)) points));
      L.checkpoint t;
      L.close t;
      let t = L.open_durable ~encode ~decode ~path () in
      check_table "reopened from a checkpoint" t;
      L.close t)

(* {1 Durable replay, clean and crash-injected} *)

let mutating_batches ?(batch = 4) sched =
  let muts = List.filter WG.mutates sched in
  let rec chunk = function
    | [] -> []
    | l ->
        let rec take n = function
          | x :: rest when n > 0 ->
              let a, b = take (n - 1) rest in
              (x :: a, b)
          | rest -> ([], rest)
        in
        let a, b = take batch l in
        a :: chunk b
  in
  chunk muts

let to_live_ops ops =
  List.map
    (function
      | WG.Insert (p, v) -> L.Insert (p, v)
      | WG.Delete p -> L.Delete p
      | WG.Range _ | WG.Scan -> assert false)
    ops

let oracle_apply o ops =
  List.iter
    (function
      | WG.Insert (p, v) -> WG.Oracle.insert o p v
      | WG.Delete p -> ignore (WG.Oracle.delete o p)
      | WG.Range _ | WG.Scan -> assert false)
    ops

let durable_roundtrip seed () =
  with_store (Printf.sprintf "dur_%d" seed) (fun path ->
      let t = L.create_durable ~encode ~decode ~path space in
      let o = WG.Oracle.create space in
      let sched = WG.generate ~seed ~n:300 () in
      List.iter (fun op -> replay_op t o op) sched;
      let expect = WG.Oracle.scan o in
      check_rows "before close" expect (entries_of t);
      L.close t;
      let t = L.open_durable ~encode ~decode ~path () in
      check "space recovered" true (L.space t = space);
      check_rows "after reopen (log replay)" expect (entries_of t);
      (* Checkpoint truncates the log; contents must not move. *)
      L.checkpoint t;
      check_rows "after checkpoint" expect (entries_of t);
      L.close t;
      let t = L.open_durable ~encode ~decode ~path () in
      check_rows "after reopen from base image" expect (entries_of t);
      L.close t)

(* Kill the store at every I/O of a batch: the reopened table must hold
   exactly the pre-batch or the post-batch rows — never a mixture. *)
let crash_torture seed () =
  with_store (Printf.sprintf "crash_%d" seed) (fun path ->
      let golden = path ^ ".golden" in
      Fun.protect ~finally:(fun () -> remove golden) @@ fun () ->
      let sched = WG.generate ~seed ~n:120 () in
      let batches = mutating_batches sched in
      L.close (L.create_durable ~encode ~decode ~path space);
      let o = WG.Oracle.create space in
      List.iteri
        (fun j ops ->
          (* Torture roughly every fourth batch; apply the rest plainly. *)
          if j mod 4 = 3 then begin
            let pre = WG.Oracle.scan o in
            let post =
              let oc = WG.Oracle.copy o in
              oracle_apply oc ops;
              WG.Oracle.scan oc
            in
            copy_file path golden;
            (* Learn how many I/O ops (open + batch) the step costs. *)
            let counter = Faulty_io.counting () in
            let tc = L.open_durable ~io:counter ~encode ~decode ~path () in
            ignore (L.apply tc (to_live_ops ops));
            L.close tc;
            let total = Faulty_io.op_count counter in
            check "step has crash points" true (total > 0);
            for k = 0 to total - 1 do
              let where = Printf.sprintf "batch %d, kill at op %d/%d" j k total in
              List.iter remove
                [ path; Journal.journal_path path ];
              copy_file golden path;
              (match
                 let tk = L.open_durable ~io:(Faulty_io.crash_at k) ~encode ~decode ~path () in
                 ignore (L.apply tk (to_live_ops ops));
                 L.close tk
               with
              | () -> Alcotest.failf "%s: expected the step to die" where
              | exception Faulty_io.Crashed -> ());
              let tr = L.open_durable ~encode ~decode ~path () in
              let got = entries_of tr in
              L.close tr;
              if got <> pre && got <> post then
                Alcotest.failf "%s: reopened table is a mixed state" where
            done;
            (* Restore the pre-batch store and land the batch for real. *)
            List.iter remove [ path; Journal.journal_path path ];
            copy_file golden path
          end;
          let t2 = L.open_durable ~encode ~decode ~path () in
          ignore (L.apply t2 (to_live_ops ops));
          oracle_apply o ops;
          check_rows (Printf.sprintf "after batch %d" j) (WG.Oracle.scan o)
            (entries_of t2);
          L.close t2)
        batches)

(* Flaky syscalls (EINTR, short I/O, transient EIO) must be invisible. *)
let seeded_faults seed () =
  with_store (Printf.sprintf "flaky_%d" seed) (fun path ->
      let io = Faulty_io.seeded ~p_eintr:0.05 ~p_short:0.15 ~p_eio:0.01 ~seed () in
      let t = L.create_durable ~io ~encode ~decode ~path space in
      let o = WG.Oracle.create space in
      List.iter (fun op -> replay_op t o op) (WG.generate ~seed ~n:200 ());
      L.close t;
      let t = L.open_durable ~io ~encode ~decode ~path () in
      check_rows "flaky run equals oracle" (WG.Oracle.scan o) (entries_of t);
      L.close t)

(* {1 Online index build} *)

(* Distinct points with point-derived payloads, so index files can be
   compared byte-for-byte without duplicate-order ambiguity. *)
let distinct_points ~seed n =
  let rng = Sqp_workload.Rng.create ~seed in
  let seen = Hashtbl.create (2 * n) in
  let out = ref [] and have = ref 0 in
  while !have < n do
    let p = [| Sqp_workload.Rng.int rng 256; Sqp_workload.Rng.int rng 256 |] in
    if not (Hashtbl.mem seen p) then begin
      Hashtbl.replace seen p ();
      out := p :: !out;
      incr have
    end
  done;
  !out

let point_payload p = (p.(0) * 31) + p.(1)

let online_build seed () =
  with_store (Printf.sprintf "online_%d" seed) (fun path ->
      let t = L.create ~encode ~decode space in
      let base, extra =
        match distinct_points ~seed 360 with
        | l ->
            let rec split n = function
              | x :: rest when n > 0 ->
                  let a, b = split (n - 1) rest in
                  (x :: a, b)
              | rest -> ([], rest)
            in
            split 300 l
      in
      List.iter (fun p -> ignore (L.insert t p (point_payload p))) base;
      (* Feed writes at every chunk boundary: fresh inserts plus deletes
         of base points, so catch-up must handle both. *)
      let pending = ref extra and victims = ref base in
      let boundaries = ref 0 in
      let on_chunk _ =
        incr boundaries;
        (match !pending with
        | p :: rest ->
            pending := rest;
            ignore (L.insert t p (point_payload p))
        | [] -> ());
        match !victims with
        | v :: rest ->
            victims := rest;
            ignore (L.delete t v)
        | [] -> ()
      in
      let snap, at_seq = L.rebuild_online ~chunk_size:32 ~on_chunk t in
      check "writes raced the backfill" true (!boundaries > 0);
      check "build reflects the final batch" true (at_seq = L.seq t);
      (* The online-built index must be bit-identical to a from-scratch
         build over the final state. *)
      let final = entries_of t in
      let index = Zindex.of_points space (Array.of_list (L.snapshot_entries snap)) in
      let scratch = Zindex.of_points space (Array.of_list final) in
      let pa = path ^ ".online" and pb = path ^ ".scratch" in
      Fun.protect
        ~finally:(fun () ->
          List.iter remove
            [ pa; pb; pa ^ ".tmp"; pb ^ ".tmp"; Journal.journal_path pa;
              Journal.journal_path pb; Journal.journal_path (pa ^ ".tmp");
              Journal.journal_path (pb ^ ".tmp") ])
        (fun () ->
          ignore (Persist.save ~path:pa ~page_bytes:256 ~encode index);
          ignore (Persist.save ~path:pb ~page_bytes:256 ~encode scratch);
          check "online build is bit-identical to from-scratch" true
            (read_file pa = read_file pb));
      (* The swap also compacted the live tree: contents unchanged. *)
      check_rows "swap preserved contents" final (entries_of t))

let online_build_crash seed () =
  with_store (Printf.sprintf "onlinecrash_%d" seed) (fun path ->
      let idx = path ^ ".idx" in
      let idx_aux =
        [ idx; idx ^ ".tmp"; Journal.journal_path idx;
          Journal.journal_path (idx ^ ".tmp") ]
      in
      Fun.protect ~finally:(fun () -> List.iter remove idx_aux) @@ fun () ->
      let points = distinct_points ~seed 200 in
      let fill t = List.iter (fun p -> ignore (L.insert t p (point_payload p))) points in
      (* Learn the I/O cost of a full create + rebuild + save run. *)
      let counter = Faulty_io.counting () in
      let t = L.create_durable ~io:counter ~encode ~decode ~path space in
      fill t;
      ignore (L.save_index ~io:counter ~path:idx t);
      L.close t;
      let expect =
        let t = L.open_durable ~encode ~decode ~path () in
        let e = entries_of t in
        L.close t;
        e
      in
      let good = read_file idx in
      let total = Faulty_io.op_count counter in
      check "run has crash points" true (total > 0);
      (* Kill at a spread of points; the store must reopen to the full
         contents and the index file must be complete or absent. *)
      let step = max 1 (total / 40) in
      let k = ref 0 in
      while !k < total do
        let where = Printf.sprintf "kill at op %d/%d" !k total in
        List.iter remove (path :: Journal.journal_path path :: idx_aux);
        let io = Faulty_io.crash_at !k in
        (match
           let t = L.create_durable ~io ~encode ~decode ~path space in
           fill t;
           ignore (L.save_index ~io ~path:idx t);
           L.close t
         with
        | () -> Alcotest.failf "%s: expected the run to die" where
        | exception Faulty_io.Crashed -> ());
        (* The journaled store replays to a prefix of the batches: it
           must open cleanly (or not exist yet), never as a mixed
           state. *)
        (if Sys.file_exists path then
           match L.open_durable ~encode ~decode ~path () with
           | t -> L.close t
           | exception Sqp_storage.Storage_error.Corrupt _ ->
               Alcotest.failf "%s: store corrupt after crash" where);
        (* The index is all-or-nothing: absent, or byte-identical to the
           crash-free build. *)
        if Sys.file_exists idx then begin
          if read_file idx <> good then
            Alcotest.failf "%s: index file is a torso" where
        end;
        k := !k + step
      done;
      (* One clean run to confirm the harness itself converges. *)
      List.iter remove (path :: Journal.journal_path path :: idx_aux);
      let t = L.create_durable ~encode ~decode ~path space in
      fill t;
      ignore (L.save_index ~path:idx t);
      check "clean index matches" true (read_file idx = good);
      check_rows "clean store matches" expect (entries_of t);
      L.close t)

(* {1 Concurrency: snapshots never see a torn batch} *)

let concurrency () =
  let t = L.create ~encode ~decode space in
  let nwriters = 3 and batches_per_writer = 25 and batch_size = 5 in
  let writer w () =
    let rng = Sqp_workload.Rng.create ~seed:(1000 + w) in
    let out = ref [] in
    for b = 0 to batches_per_writer - 1 do
      let ops =
        List.init batch_size (fun j ->
            let p =
              [| Sqp_workload.Rng.int rng 256; Sqp_workload.Rng.int rng 256 |]
            in
            L.Insert (p, (w * 1_000_000) + (b * 1_000) + j))
      in
      let seq, applied = L.apply t ops in
      if applied <> batch_size then failwith "insert batch not fully applied";
      out := (seq, ops) :: !out
    done;
    !out
  in
  let reader () =
    for _ = 1 to 400 do
      let snap = L.snapshot t in
      let tally = Hashtbl.create 64 in
      List.iter
        (fun (_, v) ->
          let batch = v / 1_000 in
          Hashtbl.replace tally batch (1 + Option.value ~default:0 (Hashtbl.find_opt tally batch)))
        (L.snapshot_entries snap);
      Hashtbl.iter
        (fun batch n ->
          if n <> batch_size then
            failwith
              (Printf.sprintf
                 "snapshot at seq %d sees %d/%d rows of batch %d: torn batch"
                 (L.snapshot_seq snap) n batch_size batch))
        tally
    done;
    []
  in
  (* The calling domain waits; the writers and the two readers each run
     on a domain of their own. *)
  let domains =
    List.map Domain.spawn (List.init nwriters writer @ [ reader; reader ])
  in
  let committed = List.concat_map Domain.join domains in
  check "every batch got a distinct sequence number" true
    (let seqs = List.map fst committed in
     List.length (List.sort_uniq compare seqs) = List.length seqs);
  (* Final state must equal a serialized replay in commit order. *)
  let replay = L.create ~encode ~decode space in
  List.iter
    (fun (_, ops) -> ignore (L.apply replay ops))
    (List.sort (fun (a, _) (b, _) -> compare a b) committed);
  check_rows "final state equals serialized replay" (entries_of replay) (entries_of t)

(* {1 Join differentials} *)

let join_differential seed () =
  let ta = L.create ~encode ~decode space and tb = L.create ~encode ~decode space in
  let oa = WG.Oracle.create space and ob = WG.Oracle.create space in
  List.iter
    (fun op ->
      match op with
      | WG.Insert (p, v) ->
          ignore (L.insert ta p v);
          WG.Oracle.insert oa p v
      | WG.Delete p ->
          ignore (L.delete ta p);
          ignore (WG.Oracle.delete oa p)
      | _ -> ())
    (WG.generate ~seed ~n:150 ());
  List.iter
    (fun op ->
      match op with
      | WG.Insert (p, v) ->
          ignore (L.insert tb p v);
          WG.Oracle.insert ob p v
      | WG.Delete p ->
          ignore (L.delete tb p);
          ignore (WG.Oracle.delete ob p)
      | _ -> ())
    (WG.generate ~seed:(seed + 100) ~n:150 ());
  let sa = L.snapshot ta and sb = L.snapshot tb in
  (* Oracle join: nested loops over z-sorted sides, point equality. *)
  let expect =
    List.concat_map
      (fun (p, va) ->
        List.filter_map
          (fun (q, vb) ->
            if Sqp_geom.Point.equal p q then Some ((p, va), (q, vb)) else None)
          (WG.Oracle.scan ob))
      (WG.Oracle.scan oa)
  in
  let got = L.equi_join sa sb in
  check "join sizes agree" true (List.length expect = List.length got);
  check "join pairs agree" true
    (List.sort compare expect = List.sort compare got)

let () =
  Alcotest.run "ingest"
    [
      ( "cowtree",
        [
          Alcotest.test_case "differential vs sorted list" `Quick cowtree_differential;
          Alcotest.test_case "cursors step and re-seek in place" `Quick cowtree_cursors;
          Alcotest.test_case "cursors count the leaves they read" `Quick
            cowtree_cursor_leaves;
          Alcotest.test_case "bulk load = one batch of inserts" `Quick
            bulk_load_matches_apply;
        ] );
      ( "differential",
        List.concat_map
          (fun seed ->
            [
              Alcotest.test_case
                (Printf.sprintf "mixed schedule (seed %d)" seed)
                `Quick (differential seed);
              Alcotest.test_case
                (Printf.sprintf "deterministic stats (seed %d)" seed)
                `Quick (stats_deterministic seed);
            ])
          seeds );
      ( "pinned",
        [
          Alcotest.test_case "scan stats (seed 7)" `Quick pinned_scan_stats;
          Alcotest.test_case "checkpoint records byte-identical" `Quick golden_records;
          Alcotest.test_case "whole-space iteration allocates O(1)" `Quick
            iteration_allocation;
        ] );
      ( "space",
        [
          Alcotest.test_case "wider than 61 bits is refused" `Quick space_bound;
          Alcotest.test_case "61-bit space end to end" `Quick (fun () ->
              List.iter widest_space [ (1, 61); (3, 20); (2, 30) ]);
        ] );
      ( "durable",
        List.concat_map
          (fun seed ->
            [
              Alcotest.test_case
                (Printf.sprintf "roundtrip (seed %d)" seed)
                `Quick (durable_roundtrip seed);
              Alcotest.test_case
                (Printf.sprintf "kill at every op (seed %d)" seed)
                `Quick (crash_torture seed);
              Alcotest.test_case
                (Printf.sprintf "transparent flaky I/O (seed %d)" seed)
                `Quick (seeded_faults seed);
            ])
          seeds );
      ( "online build",
        List.concat_map
          (fun seed ->
            [
              Alcotest.test_case
                (Printf.sprintf "bit-identical under writes (seed %d)" seed)
                `Quick (online_build seed);
              Alcotest.test_case
                (Printf.sprintf "crash mid-backfill (seed %d)" seed)
                `Quick (online_build_crash seed);
            ])
          seeds );
      ( "concurrency",
        [ Alcotest.test_case "no torn snapshots across domains" `Quick concurrency ] );
      ( "join",
        List.map
          (fun seed ->
            Alcotest.test_case
              (Printf.sprintf "equi-join differential (seed %d)" seed)
              `Quick (join_differential seed))
          seeds );
    ]
