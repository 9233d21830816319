module FP = Sqp_storage.File_pager
module Crc32 = Sqp_storage.Crc32
module Storage_error = Sqp_storage.Storage_error
module Faulty_io = Sqp_storage.Faulty_io
module Journal = Sqp_storage.Journal
module Fsck = Sqp_storage.Fsck
module Zindex = Sqp_btree.Zindex
module Persist = Sqp_btree.Persist
module Z = Sqp_zorder
module W = Sqp_workload

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let tmp name = Filename.concat (Filename.get_temp_dir_name ()) ("sqp_test_" ^ name)

let with_file name f =
  let path = tmp name in
  let aux = [ path; path ^ ".tmp"; Journal.journal_path path ] in
  let clean () = List.iter (fun p -> if Sys.file_exists p then Sys.remove p) aux in
  clean ();
  Fun.protect ~finally:clean (fun () -> f path)

(* Byte surgery on closed store files, for the corruption tests. *)
let patch path off bytes =
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0 in
  ignore (Unix.lseek fd off Unix.SEEK_SET);
  ignore (Unix.write fd bytes 0 (Bytes.length bytes));
  Unix.close fd

let read_at path off len =
  let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
  let buf = Bytes.create len in
  ignore (Unix.lseek fd off Unix.SEEK_SET);
  let n = Unix.read fd buf 0 len in
  Unix.close fd;
  Bytes.sub buf 0 n

(* A checksum-valid free page image pointing at [next]. *)
let free_page_img ~page_bytes next =
  let buf = Bytes.make page_bytes '\000' in
  Bytes.set_int32_be buf 0 (Int32.of_int 0xFFFFFFFF);
  Bytes.set_int64_be buf 8 (Int64.of_int next);
  let crc = Crc32.(finish (update (update init buf ~pos:0 ~len:4) buf ~pos:8 ~len:8)) in
  Bytes.set_int32_be buf 4 (Int32.of_int crc);
  buf

(* Rewrite one header field (by byte offset) and re-checksum the header. *)
let patch_header path off v =
  let head = read_at path 0 FP.header_size in
  Bytes.set_int64_be head off (Int64.of_int v);
  Bytes.set_int32_be head 36 (Int32.of_int (Crc32.bytes_crc head ~pos:0 ~len:36));
  patch path 0 head

let expect_corrupt name f =
  match f () with
  | _ -> Alcotest.fail (name ^ ": expected Storage_error.Corrupt")
  | exception Storage_error.Corrupt _ -> ()

(* {1 File pager} *)

let test_fp_roundtrip () =
  with_file "roundtrip" (fun path ->
      let s = FP.create ~page_bytes:128 path in
      let a = FP.alloc s (Bytes.of_string "hello") in
      let b = FP.alloc s (Bytes.of_string "world!") in
      Alcotest.(check string) "a" "hello" (Bytes.to_string (FP.read s a));
      Alcotest.(check string) "b" "world!" (Bytes.to_string (FP.read s b));
      FP.write s a (Bytes.of_string "HELLO");
      Alcotest.(check string) "rewritten" "HELLO" (Bytes.to_string (FP.read s a));
      check_int "live" 2 (FP.page_count s);
      FP.close s)

let test_fp_reopen () =
  with_file "reopen" (fun path ->
      let s = FP.create ~page_bytes:64 path in
      let ids = List.init 5 (fun i -> FP.alloc s (Bytes.of_string (string_of_int i))) in
      FP.free s (List.nth ids 2);
      FP.close s;
      let s2 = FP.open_existing path in
      check_int "live after reopen" 4 (FP.page_count s2);
      List.iteri
        (fun i id ->
          if i <> 2 then
            Alcotest.(check string) "content" (string_of_int i)
              (Bytes.to_string (FP.read s2 id)))
        ids;
      (match FP.read s2 (List.nth ids 2) with
      | _ -> Alcotest.fail "freed page readable"
      | exception Invalid_argument _ -> ());
      FP.close s2)

let test_fp_free_reuse () =
  with_file "reuse" (fun path ->
      let s = FP.create ~page_bytes:64 path in
      let a = FP.alloc s (Bytes.of_string "a") in
      let _b = FP.alloc s (Bytes.of_string "b") in
      FP.free s a;
      let c = FP.alloc s (Bytes.of_string "c") in
      check_int "slot reused" a c;
      FP.close s)

let test_fp_overflow () =
  with_file "overflow" (fun path ->
      let s = FP.create ~page_bytes:64 path in
      let cap = FP.payload_capacity s in
      (match FP.alloc s (Bytes.make (cap + 1) 'x') with
      | _ -> Alcotest.fail "expected overflow"
      | exception Invalid_argument _ -> ());
      (* Exactly at capacity is fine. *)
      let id = FP.alloc s (Bytes.make cap 'x') in
      check_int "full page" cap (Bytes.length (FP.read s id));
      FP.close s)

let test_fp_iter_order () =
  with_file "iter" (fun path ->
      let s = FP.create ~page_bytes:64 path in
      let _ = FP.alloc s (Bytes.of_string "1") in
      let b = FP.alloc s (Bytes.of_string "2") in
      let _ = FP.alloc s (Bytes.of_string "3") in
      FP.free s b;
      let seen = ref [] in
      FP.iter s (fun _ payload -> seen := Bytes.to_string payload :: !seen);
      Alcotest.(check (list string)) "live pages in order" [ "1"; "3" ] (List.rev !seen);
      FP.close s)

let test_fp_bad_magic () =
  with_file "magic" (fun path ->
      let oc = open_out path in
      output_string oc (String.make 64 'j');
      close_out oc;
      expect_corrupt "bad magic" (fun () -> FP.open_existing path))

let test_fp_closed () =
  with_file "closed" (fun path ->
      let s = FP.create ~page_bytes:64 path in
      FP.close s;
      match FP.alloc s (Bytes.of_string "x") with
      | _ -> Alcotest.fail "expected Invalid_argument"
      | exception Invalid_argument _ -> ())

(* {1 Corruption and open_existing edge cases} *)

(* A closed 64-byte-page store with three live pages "0" "1" "2". *)
let small_store path =
  let s = FP.create ~page_bytes:64 path in
  let ids = List.init 3 (fun i -> FP.alloc s (Bytes.of_string (string_of_int i))) in
  FP.close s;
  ids

let test_fp_short_file () =
  with_file "short" (fun path ->
      let oc = open_out path in
      output_string oc "SQP2";
      close_out oc;
      expect_corrupt "short file" (fun () -> FP.open_existing path))

let test_fp_truncated () =
  with_file "truncated" (fun path ->
      ignore (small_store path);
      let fd = Unix.openfile path [ Unix.O_RDWR ] 0 in
      Unix.ftruncate fd ((4 * 64) - 10);
      Unix.close fd;
      expect_corrupt "truncated" (fun () -> FP.open_existing path))

let test_fp_page_bitrot () =
  with_file "bitrot" (fun path ->
      let ids = small_store path in
      (* Flip a payload byte of the middle page: open-time scan fails. *)
      patch path ((List.nth ids 1 * 64) + FP.page_header_bytes) (Bytes.of_string "X");
      expect_corrupt "bitrot" (fun () -> FP.open_existing path))

let test_fp_read_detects_corruption () =
  with_file "readcrc" (fun path ->
      let ids = small_store path in
      let s = FP.open_existing path in
      (* Corrupt behind the open handle's back; reads go to disk. *)
      patch path ((List.nth ids 0 * 64) + FP.page_header_bytes) (Bytes.of_string "X");
      expect_corrupt "read" (fun () -> FP.read s (List.nth ids 0));
      FP.close s)

let test_fp_free_list_cycle () =
  with_file "cycle" (fun path ->
      let s = FP.create ~page_bytes:64 path in
      let ids = List.init 3 (fun i -> FP.alloc s (Bytes.of_string (string_of_int i))) in
      FP.free s (List.nth ids 0);
      FP.free s (List.nth ids 1);
      FP.close s;
      (* Free list is b -> a -> end; point a back at b to close a cycle. *)
      let a = List.nth ids 0 and b = List.nth ids 1 in
      patch path (a * 64) (free_page_img ~page_bytes:64 b);
      expect_corrupt "cycle" (fun () -> FP.open_existing path))

let test_fp_free_list_dangling () =
  with_file "dangling" (fun path ->
      let s = FP.create ~page_bytes:64 path in
      let ids = List.init 3 (fun i -> FP.alloc s (Bytes.of_string (string_of_int i))) in
      FP.free s (List.nth ids 1);
      FP.close s;
      (* Point the freed page's next at a live page. *)
      patch path (List.nth ids 1 * 64)
        (free_page_img ~page_bytes:64 (List.nth ids 2));
      expect_corrupt "dangling" (fun () -> FP.open_existing path))

let test_fp_header_live_mismatch () =
  with_file "livemism" (fun path ->
      ignore (small_store path);
      (* Header claims 2 live pages; the scan finds 3. *)
      patch_header path 28 2;
      expect_corrupt "live mismatch" (fun () -> FP.open_existing path))

let test_fp_header_slot_mismatch () =
  with_file "slotmism" (fun path ->
      ignore (small_store path);
      (* Header claims more slots than the file holds. *)
      patch_header path 12 40;
      expect_corrupt "slot mismatch" (fun () -> FP.open_existing path))

let test_fp_garbage_journal_discarded () =
  with_file "gjournal" (fun path ->
      ignore (small_store path);
      let oc = open_out (Journal.journal_path path) in
      output_string oc "torn nonsense, not a journal";
      close_out oc;
      (* A torn journal is discarded and the store opens as it was. *)
      let s = FP.open_existing path in
      check_int "live" 3 (FP.page_count s);
      FP.close s;
      check "journal removed" false (Sys.file_exists (Journal.journal_path path)))

(* {1 Batches} *)

let test_fp_batch_abort () =
  with_file "abort" (fun path ->
      let s = FP.create ~page_bytes:64 path in
      let a = FP.alloc s (Bytes.of_string "keep") in
      FP.begin_batch s;
      let b = FP.alloc s (Bytes.of_string "drop") in
      FP.write s a (Bytes.of_string "KEEP?");
      Alcotest.(check string) "read-your-writes" "KEEP?" (Bytes.to_string (FP.read s a));
      FP.abort_batch s;
      Alcotest.(check string) "rolled back" "keep" (Bytes.to_string (FP.read s a));
      check_int "alloc rolled back" 1 (FP.page_count s);
      (match FP.read s b with
      | _ -> Alcotest.fail "aborted alloc readable"
      | exception Invalid_argument _ -> ());
      (* The slot is reusable after the abort. *)
      let c = FP.alloc s (Bytes.of_string "again") in
      check_int "slot reused after abort" b c;
      FP.close s)

let test_fp_batch_commit_once () =
  with_file "batch" (fun path ->
      let s = FP.create ~page_bytes:64 path in
      FP.begin_batch s;
      let ids = List.init 10 (fun i -> FP.alloc s (Bytes.of_string (string_of_int i))) in
      FP.commit_batch s;
      FP.close s;
      let s2 = FP.open_existing path in
      List.iteri
        (fun i id ->
          Alcotest.(check string) "batched page" (string_of_int i)
            (Bytes.to_string (FP.read s2 id)))
        ids;
      FP.close s2)

let test_fp_enospc () =
  with_file "enospc" (fun path ->
      let s = FP.create ~page_bytes:64 path in
      let a = FP.alloc s (Bytes.of_string "first") in
      FP.close s;
      (* Reopen with a nearly-exhausted disk: the next commit must fail
         with a typed error and leave the old state recoverable. *)
      let io = Faulty_io.enospc_after 16 in
      let s = FP.open_existing ~io path in
      (match FP.alloc s (Bytes.of_string "second") with
      | _ -> Alcotest.fail "expected Io_error"
      | exception Storage_error.Io_error { error = Unix.ENOSPC; _ } -> ());
      (* The handle is poisoned; a fresh open recovers the old state. *)
      let s2 = FP.open_existing path in
      check_int "old state intact" 1 (FP.page_count s2);
      Alcotest.(check string) "first page intact" "first"
        (Bytes.to_string (FP.read s2 a));
      FP.close s2)

(* {1 Fsck} *)

let test_fsck_clean_and_corrupt () =
  with_file "fsck" (fun path ->
      let ids = small_store path in
      let r = Fsck.scan path in
      check "clean store" true (Fsck.clean r);
      patch path ((List.nth ids 1 * 64) + FP.page_header_bytes) (Bytes.of_string "X");
      let r = Fsck.scan path in
      check "corruption found" false (Fsck.clean r);
      check_int "one bad page" 1 (List.length r.Fsck.bad_pages);
      check_int "bad slot" (List.nth ids 1) (List.hd r.Fsck.bad_pages).Fsck.slot;
      check "report mentions slot" true
        (String.length (Fsck.to_text r) > 0))

let test_fsck_salvage () =
  with_file "salvage" (fun path ->
      let dest = path ^ ".rescued" in
      if Sys.file_exists dest then Sys.remove dest;
      Fun.protect
        ~finally:(fun () -> if Sys.file_exists dest then Sys.remove dest)
        (fun () ->
          let ids = small_store path in
          patch path ((List.nth ids 1 * 64) + FP.page_header_bytes) (Bytes.of_string "X");
          let salvaged, lost = Fsck.salvage ~src:path ~dest () in
          check_int "salvaged" 2 salvaged;
          check_int "lost" 1 lost;
          (* Every uncorrupted page survives, in order. *)
          let s = FP.open_existing dest in
          let seen = ref [] in
          FP.iter s (fun _ p -> seen := Bytes.to_string p :: !seen);
          Alcotest.(check (list string)) "survivors" [ "0"; "2" ] (List.rev !seen);
          FP.close s))

(* {1 Index persistence} *)

let build_index n =
  let space = Z.Space.make ~dims:2 ~depth:8 in
  let rng = W.Rng.create ~seed:123 in
  let points = W.Datagen.uniform rng ~side:256 ~n ~dims:2 in
  Zindex.of_points space (Array.mapi (fun i p -> (p, i)) points)

let test_save_load_roundtrip () =
  with_file "index" (fun path ->
      let index = build_index 500 in
      let pages = Persist.save ~path ~encode:string_of_int index in
      check "some data pages" true (pages > 0);
      let loaded = Persist.load ~path ~decode:int_of_string () in
      check_int "length" 500 (Zindex.length loaded);
      check_int "capacity preserved" (Zindex.leaf_capacity index)
        (Zindex.leaf_capacity loaded);
      (* Queries agree. *)
      let rng = W.Rng.create ~seed:9 in
      for _ = 1 to 20 do
        let x1 = W.Rng.int rng 256 and x2 = W.Rng.int rng 256 in
        let y1 = W.Rng.int rng 256 and y2 = W.Rng.int rng 256 in
        let box =
          Sqp_geom.Box.make ~lo:[| min x1 x2; min y1 y2 |]
            ~hi:[| max x1 x2; max y1 y2 |]
        in
        let a, _ = Zindex.range_search index box in
        let b, _ = Zindex.range_search loaded box in
        if a <> b then Alcotest.fail "reloaded index answers differently"
      done)

let test_save_load_3d_and_strings () =
  with_file "index3d" (fun path ->
      let space = Z.Space.make ~dims:3 ~depth:4 in
      let rng = W.Rng.create ~seed:3 in
      let points = W.Datagen.uniform rng ~side:16 ~n:100 ~dims:3 in
      let index =
        Zindex.of_points ~leaf_capacity:8 space
          (Array.map (fun p -> (p, Printf.sprintf "p%d-%d-%d" p.(0) p.(1) p.(2))) points)
      in
      ignore (Persist.save ~path ~encode:Fun.id index);
      let loaded = Persist.load ~path ~decode:Fun.id () in
      check_int "length" 100 (Zindex.length loaded);
      check_int "capacity" 8 (Zindex.leaf_capacity loaded);
      Array.iter
        (fun p ->
          check "payload preserved" true
            (Zindex.find loaded p = Some (Printf.sprintf "p%d-%d-%d" p.(0) p.(1) p.(2))))
        points)

let test_save_empty_index () =
  with_file "empty" (fun path ->
      let space = Z.Space.make ~dims:2 ~depth:4 in
      let index = Zindex.create space in
      let pages = Persist.save ~path ~encode:string_of_int index in
      check_int "no data pages" 0 pages;
      let loaded = Persist.load ~path ~decode:int_of_string () in
      check_int "empty" 0 (Zindex.length loaded))

let test_save_replaces_atomically () =
  with_file "replace" (fun path ->
      ignore (Persist.save ~path ~encode:string_of_int (build_index 100));
      (* Saving again over the same path replaces, never corrupts. *)
      ignore (Persist.save ~path ~encode:string_of_int (build_index 200));
      let loaded = Persist.load ~path ~decode:int_of_string () in
      check_int "second save wins" 200 (Zindex.length loaded);
      check "no tmp left behind" false (Sys.file_exists (path ^ ".tmp")))

(* Bit rot on reads: every successful read flips one bit with
   probability [p_flip].  A load either notices, raising [Corrupt], or
   returns exactly the saved entries; when every read flips, every load
   notices.  Loads only read, so the store stays intact throughout. *)
let test_load_under_bit_rot () =
  with_file "bitrot" (fun path ->
      let wk = W.Seeded.standard () in
      let index = Zindex.of_points wk.W.Seeded.space (W.Seeded.tagged_points wk) in
      ignore (Persist.save ~path ~encode:string_of_int index);
      let entries = Zindex.Tree.to_list (Zindex.tree index) in
      let loads_as_saved io =
        Zindex.Tree.to_list
          (Zindex.tree (Persist.load ?io ~path ~decode:int_of_string ()))
        = entries
      in
      List.iter
        (fun p_flip ->
          let corrupt = ref 0 and seeds = 100 in
          for seed = 1 to seeds do
            match loads_as_saved (Some (Faulty_io.seeded ~p_flip ~seed ())) with
            | true -> ()
            | false ->
                Alcotest.failf "p_flip %g, seed %d: a load returned other entries"
                  p_flip seed
            | exception Storage_error.Corrupt _ -> incr corrupt
          done;
          if p_flip = 1.0 then check_int "p_flip 1: every load corrupt" seeds !corrupt
          else
            check
              (Printf.sprintf "p_flip %g: some loads corrupt, some clean" p_flip)
              true
              (!corrupt > 0 && !corrupt < seeds))
        [ 1.0; 0.05 ];
      check "the store is intact" true (loads_as_saved None))

let test_salvage_then_lenient_load () =
  with_file "lenient" (fun path ->
      let dest = path ^ ".rescued" in
      if Sys.file_exists dest then Sys.remove dest;
      Fun.protect
        ~finally:(fun () -> if Sys.file_exists dest then Sys.remove dest)
        (fun () ->
          let index = build_index 400 in
          ignore (Persist.save ~path ~page_bytes:256 ~encode:string_of_int index);
          (* Rot one data page, then salvage what survives. *)
          let s = FP.open_existing path in
          let slots = ref [] in
          FP.iter s (fun slot _ -> slots := slot :: !slots);
          FP.close s;
          let victim = List.hd !slots (* highest slot: a data page *) in
          patch path ((victim * 256) + FP.page_header_bytes) (Bytes.of_string "\xde\xad");
          expect_corrupt "strict load fails" (fun () ->
              Persist.load ~path ~decode:int_of_string ());
          let salvaged, lost = Fsck.salvage ~src:path ~dest () in
          check "salvaged most pages" true (salvaged >= 1);
          check_int "one page lost" 1 lost;
          let loaded = Persist.load ~lenient:true ~path:dest ~decode:int_of_string () in
          check "most entries recovered" true
            (Zindex.length loaded > 0 && Zindex.length loaded < 400)))

(* {1 The v3 format} *)

let store_pages path =
  let s = FP.open_existing path in
  let acc = ref [] in
  FP.iter s (fun _ p -> acc := Bytes.to_string p :: !acc);
  FP.close s;
  List.rev !acc

let pages_digest pages =
  Digest.to_hex
    (Digest.string
       (String.concat ""
          (List.map (fun p -> Printf.sprintf "%d:%s" (String.length p) p) pages)))

(* Points in a [dims] x [depth] space; coordinates wider than 30 bits
   are drawn in two halves. *)
let wide_index ~dims ~depth ~n =
  let space = Z.Space.make ~dims ~depth in
  let rng = W.Rng.create ~seed:((dims * 100) + depth) in
  let coord () =
    if depth <= 30 then W.Rng.int rng (1 lsl depth)
    else (W.Rng.int rng (1 lsl (depth - 30)) lsl 30) lor W.Rng.int rng (1 lsl 30)
  in
  Zindex.of_points space
    (Array.init n (fun i -> (Array.init dims (fun _ -> coord ()), i)))

(* Metadata and data pages of dumps written before z values were ints
   (the two-word packed codec): the format is unchanged, byte for byte,
   including where the greedy packing cuts pages. *)
let test_v3_golden_pages () =
  List.iter
    (fun (what, index, page_bytes, npages, meta, data) ->
      with_file "golden" (fun path ->
          ignore (Persist.save ~path ~page_bytes ~encode:string_of_int index);
          let pages = store_pages path in
          check_int (what ^ ": pages") npages (List.length pages);
          Alcotest.(check string) (what ^ ": metadata") meta
            (Digest.to_hex (Digest.string (List.hd pages)));
          Alcotest.(check string) (what ^ ": data pages") data
            (pages_digest (List.tl pages));
          let loaded = Persist.load ~path ~decode:int_of_string () in
          check (what ^ ": reloads") true
            (Zindex.Tree.to_list (Zindex.tree loaded)
            = Zindex.Tree.to_list (Zindex.tree index))))
    [
      ( "500 entries", build_index 500, 4096, 2,
        "31669f87410dbba368102d57cf017ee7", "3e694e70ca6905df1f995d0ca9a1da91" );
      ( "500 entries, 256-byte pages", build_index 500, 256, 17,
        "31669f87410dbba368102d57cf017ee7", "36f84c79022ee6a8f09b714ff0ce033f" );
      ( "1x61", wide_index ~dims:1 ~depth:61 ~n:300, 512, 9,
        "b3dd98c8448f514a389c8af3a93356c9", "ca9890774c1e7f05946f36e56b0d029b" );
      ( "3x20", wide_index ~dims:3 ~depth:20 ~n:300, 512, 9,
        "1c0b977fc721466a08b11d23ec6659ab", "412be92afe6d5c3ae4361eb4ca09ac20" );
      ( "2x30", wide_index ~dims:2 ~depth:30 ~n:300, 512, 9,
        "c7ef735224a607f8b3c9f63aca7a7f5d", "ccae9fa7f652ab0f004fecf67dd8fd52" );
    ]

(* A store holding only a metadata page: [magic], then [dims] and
   [depth], leaf capacity 20, no entries and no page budget. *)
let craft_meta path ~magic ~dims ~depth =
  let b = Bytes.make 20 '\000' in
  Bytes.blit_string magic 0 b 0 4;
  Bytes.set_uint8 b 4 dims;
  Bytes.set_uint8 b 5 depth;
  Bytes.set_uint16_be b 6 20;
  let store = FP.create ~page_bytes:256 path in
  ignore (FP.alloc store b);
  FP.close store

(* Metadata naming a space [Space.make] refuses, or the retired v2
   magic, is corrupt to both the loader and fsck's inspection. *)
let test_bad_metadata () =
  with_file "badmeta" (fun path ->
      craft_meta path ~magic:"SQPZ" ~dims:2 ~depth:30;
      check_int "60 bits load" 0
        (Zindex.length (Persist.load ~path ~decode:int_of_string ()));
      List.iter
        (fun (magic, dims, depth) ->
          craft_meta path ~magic ~dims ~depth;
          let what = Printf.sprintf "%s %d x %d" magic dims depth in
          expect_corrupt (what ^ ": load") (fun () ->
              Persist.load ~path ~decode:int_of_string ());
          expect_corrupt (what ^ ": inspect") (fun () -> Persist.inspect ~path ()))
        [ ("SQPZ", 2, 31); ("SQPZ", 1, 62); ("SQPZ", 255, 255); ("SQPZ", 2, 64);
          ("SQPX", 2, 8) ])

let test_inspect_clean () =
  with_file "inspect" (fun path ->
      let index = build_index 400 in
      ignore (Persist.save ~path ~encode:string_of_int index);
      let info = Persist.inspect ~path () in
      check_int "version" 3 info.Persist.version;
      check_int "dims" 2 info.Persist.dims;
      check_int "depth" 8 info.Persist.depth;
      check_int "count" 400 info.Persist.count;
      check_int "found" 400 info.Persist.found;
      check "no page errors" true (info.Persist.page_errors = []);
      check "some data pages" true (info.Persist.data_pages > 0))

(* Patch payload bytes of a live page and re-checksum it, so the page
   store stays clean and only the {e inner} v3 structure is rotten —
   exactly the damage Zrun.validate exists to catch. *)
let patch_within_checksum path ~page_bytes slot off bytes =
  let img = Bytes.of_string (Bytes.to_string (read_at path (slot * page_bytes) page_bytes)) in
  Bytes.blit bytes 0 img (FP.page_header_bytes + off) (Bytes.length bytes);
  let len = Int32.to_int (Bytes.get_int32_be img 0) in
  let crc =
    Crc32.(finish (update (update init img ~pos:0 ~len:4) img ~pos:8 ~len))
  in
  Bytes.set_int32_be img 4 (Int32.of_int crc);
  patch path (slot * page_bytes) img

let test_inspect_reports_bad_page () =
  with_file "inspectbad" (fun path ->
      let index = build_index 400 in
      ignore (Persist.save ~path ~page_bytes:256 ~encode:string_of_int index);
      let clean = Persist.inspect ~path () in
      (* Rot a data page's run body under a valid checksum: the page
         store is clean, but inspect's deep v3 validation pins it. *)
      let s = FP.open_existing path in
      let slots = ref [] in
      FP.iter s (fun slot _ -> slots := slot :: !slots);
      FP.close s;
      let victim = List.hd !slots in
      patch_within_checksum path ~page_bytes:256 victim 4
        (Bytes.of_string "\xff\xff\xff\xff");
      check "page store itself is clean" true (Fsck.clean (Fsck.scan path));
      let info = Persist.inspect ~path () in
      check_int "version still read" 3 info.Persist.version;
      check_int "one bad page" 1 (List.length info.Persist.page_errors);
      check_int "bad slot pinned" victim (fst (List.hd info.Persist.page_errors));
      check "entries missing" true (info.Persist.found < clean.Persist.found);
      (* The strict loader refuses the same damage. *)
      expect_corrupt "strict load fails" (fun () ->
          Persist.load ~path ~decode:int_of_string ()))

let test_v3_salvage_then_lenient_load () =
  with_file "lenient3" (fun path ->
      let dest = path ^ ".rescued" in
      if Sys.file_exists dest then Sys.remove dest;
      Fun.protect
        ~finally:(fun () -> if Sys.file_exists dest then Sys.remove dest)
        (fun () ->
          (* A budget-built index: the metadata round-trips the page
             budget, so the recovered index keeps compressed geometry. *)
          let space = Z.Space.make ~dims:2 ~depth:8 in
          let rng = W.Rng.create ~seed:123 in
          let points = W.Datagen.uniform rng ~side:256 ~n:400 ~dims:2 in
          let index =
            Zindex.of_points ~page_budget:512 space
              (Array.mapi (fun i p -> (p, i)) points)
          in
          ignore (Persist.save ~path ~page_bytes:256 ~encode:string_of_int index);
          check "v3 with budget" true
            ((Persist.inspect ~path ()).Persist.page_budget = Some 512);
          let s = FP.open_existing path in
          let slots = ref [] in
          FP.iter s (fun slot _ -> slots := slot :: !slots);
          FP.close s;
          patch path ((List.hd !slots * 256) + FP.page_header_bytes)
            (Bytes.of_string "\xde\xad");
          expect_corrupt "strict load fails" (fun () ->
              Persist.load ~path ~decode:int_of_string ());
          let _salvaged, lost = Fsck.salvage ~src:path ~dest () in
          check_int "one page lost" 1 lost;
          let loaded = Persist.load ~lenient:true ~path:dest ~decode:int_of_string () in
          check "most entries recovered" true
            (Zindex.length loaded > 0 && Zindex.length loaded < 400);
          check "compressed geometry recovered" true
            (Zindex.page_budget loaded = Some 512)))

let () =
  Alcotest.run "persist"
    [
      ( "file pager",
        [
          Alcotest.test_case "roundtrip" `Quick test_fp_roundtrip;
          Alcotest.test_case "reopen" `Quick test_fp_reopen;
          Alcotest.test_case "free-slot reuse" `Quick test_fp_free_reuse;
          Alcotest.test_case "overflow" `Quick test_fp_overflow;
          Alcotest.test_case "iter order" `Quick test_fp_iter_order;
          Alcotest.test_case "bad magic" `Quick test_fp_bad_magic;
          Alcotest.test_case "closed handle" `Quick test_fp_closed;
        ] );
      ( "corruption",
        [
          Alcotest.test_case "short file" `Quick test_fp_short_file;
          Alcotest.test_case "truncated file" `Quick test_fp_truncated;
          Alcotest.test_case "page bit rot" `Quick test_fp_page_bitrot;
          Alcotest.test_case "read detects corruption" `Quick
            test_fp_read_detects_corruption;
          Alcotest.test_case "free-list cycle" `Quick test_fp_free_list_cycle;
          Alcotest.test_case "free-list dangling" `Quick test_fp_free_list_dangling;
          Alcotest.test_case "header live mismatch" `Quick test_fp_header_live_mismatch;
          Alcotest.test_case "header slot mismatch" `Quick test_fp_header_slot_mismatch;
          Alcotest.test_case "garbage journal discarded" `Quick
            test_fp_garbage_journal_discarded;
        ] );
      ( "batches",
        [
          Alcotest.test_case "abort rolls back" `Quick test_fp_batch_abort;
          Alcotest.test_case "commit is atomic" `Quick test_fp_batch_commit_once;
          Alcotest.test_case "enospc" `Quick test_fp_enospc;
        ] );
      ( "fsck",
        [
          Alcotest.test_case "scan" `Quick test_fsck_clean_and_corrupt;
          Alcotest.test_case "salvage" `Quick test_fsck_salvage;
        ] );
      ( "index persistence",
        [
          Alcotest.test_case "save/load roundtrip" `Quick test_save_load_roundtrip;
          Alcotest.test_case "3d + string payloads" `Quick test_save_load_3d_and_strings;
          Alcotest.test_case "empty index" `Quick test_save_empty_index;
          Alcotest.test_case "atomic replace" `Quick test_save_replaces_atomically;
          Alcotest.test_case "salvage + lenient load" `Quick test_salvage_then_lenient_load;
          Alcotest.test_case "load under bit rot" `Quick test_load_under_bit_rot;
        ] );
      ( "format versions",
        [
          Alcotest.test_case "v3 pages byte-identical" `Quick test_v3_golden_pages;
          Alcotest.test_case "metadata naming a bad space" `Quick test_bad_metadata;
          Alcotest.test_case "inspect clean v3" `Quick test_inspect_clean;
          Alcotest.test_case "inspect pins a bad page" `Quick
            test_inspect_reports_bad_page;
          Alcotest.test_case "v3 salvage + lenient load" `Quick
            test_v3_salvage_then_lenient_load;
        ] );
    ]
