module Z = Sqp_zorder
module FP = Sqp_storage.File_pager
module Storage_error = Sqp_storage.Storage_error
module Faulty_io = Sqp_storage.Faulty_io

(* Metadata page payload: "SQPZ" | dims:u8 | depth:u8 | leaf_capacity:u16
   | entry_count:i64 | page_budget:u32 (0 = entry-count pages).  Data
   page payload: nentries:u16 | run_bytes:u16 | front-coded z run
   ({!Sqp_zorder.Zrun} of the entries' z values read as integers) |
   payloads (payload_len:u16 | payload, one per entry, in run order).
   Points are recovered by de-interleaving the z values. *)

let meta_magic = "SQPZ"

let encode_meta ~dims ~depth ~leaf_capacity ~count ~page_budget =
  let buf = Bytes.create (4 + 1 + 1 + 2 + 8 + 4) in
  Bytes.blit_string meta_magic 0 buf 0 4;
  Bytes.set_uint8 buf 4 dims;
  Bytes.set_uint8 buf 5 depth;
  Bytes.set_uint16_be buf 6 leaf_capacity;
  Bytes.set_int64_be buf 8 (Int64.of_int count);
  Bytes.set_int32_be buf 16 (Int32.of_int page_budget);
  buf

type meta = {
  space : Z.Space.t;
  leaf_capacity : int;
  count : int;
  page_budget : int option;  (* [None] when 0 *)
}

let decode_meta ~path buf =
  if Bytes.length buf < 20 || Bytes.sub_string buf 0 4 <> meta_magic then
    Storage_error.corrupt ~path "bad index metadata page";
  let dims = Bytes.get_uint8 buf 4 and depth = Bytes.get_uint8 buf 5 in
  let space =
    try Z.Space.make ~dims ~depth
    with Invalid_argument msg ->
      Storage_error.corrupt ~path ("index metadata names a bad space: " ^ msg)
  in
  {
    space;
    leaf_capacity = Bytes.get_uint16_be buf 6;
    count = Int64.to_int (Bytes.get_int64_be buf 8);
    page_budget =
      (match Int32.to_int (Bytes.get_int32_be buf 16) with 0 -> None | b -> Some b);
  }

(* {1 Page codec} *)

(* Fixed per-page overhead: run header + nentries:u16 + run_bytes:u16. *)
let page_overhead = Z.Zrun.header_bytes + 4

(* What an entry adds to its page: its run entry plus its payload. *)
let entry_cost ~total ~index ~prev z payload_len =
  Z.Zrun.entry_bytes ~bits:total ~index ~prev z + 2 + payload_len

let encode_page ~total zs payloads =
  let rs = Z.Zrun.to_string (Z.Zrun.encode ~bits:total zs) in
  let buf = Buffer.create (4 + String.length rs) in
  Buffer.add_uint16_be buf (Array.length zs);
  Buffer.add_uint16_be buf (String.length rs);
  Buffer.add_string buf rs;
  List.iter
    (fun p ->
      Buffer.add_uint16_be buf (String.length p);
      Buffer.add_string buf p)
    payloads;
  Buffer.to_bytes buf

let decode_page ~path buf =
  let s = Bytes.unsafe_to_string buf in
  let len = String.length s in
  if len < 4 then Storage_error.corrupt ~path "truncated v3 data page";
  let u16 i = (Char.code s.[i] lsl 8) lor Char.code s.[i + 1] in
  let nentries = u16 0 and run_bytes = u16 2 in
  if 4 + run_bytes > len then
    Storage_error.corrupt ~path "v3 z run overruns the page";
  let run =
    try Z.Zrun.of_string ~pos:4 ~len:run_bytes s
    with Invalid_argument msg ->
      Storage_error.corrupt ~path ("v3 z run: " ^ msg)
  in
  if Z.Zrun.count run <> nentries then
    Storage_error.corrupt ~path "v3 page entry count disagrees with its z run";
  let zs =
    try Z.Zrun.decode run
    with Invalid_argument msg ->
      Storage_error.corrupt ~path ("v3 z run: " ^ msg)
  in
  let payloads = Array.make nentries "" in
  let off = ref (4 + run_bytes) in
  for i = 0 to nentries - 1 do
    if !off + 2 > len then
      Storage_error.corrupt ~path "truncated v3 payload table";
    let plen = u16 !off in
    if !off + 2 + plen > len then
      Storage_error.corrupt ~path "v3 payload runs past the page";
    payloads.(i) <- String.sub s (!off + 2) plen;
    off := !off + 2 + plen
  done;
  (zs, payloads)

(* {1 Save} *)

let save_error_cleanup store tmp e =
  FP.close store;
  (try Sys.remove tmp with Sys_error _ -> ());
  (try Sys.remove (Sqp_storage.Journal.journal_path tmp) with Sys_error _ -> ());
  raise e

let save ?(io = Faulty_io.none) ~path ?(page_bytes = 4096) ~encode index =
  let space = Zindex.space index in
  let total = Z.Space.total_bits space in
  (* Build the new store beside the old one, then atomically rename over
     it: a crash at any point leaves either the old or the new index. *)
  let tmp = path ^ ".tmp" in
  let store = FP.create ~io ~page_bytes tmp in
  let data_pages =
    try
      let capacity = FP.payload_capacity store in
      let entries = Zindex.Tree.to_list (Zindex.tree index) in
      FP.begin_batch store;
      ignore
        (FP.alloc store
           (encode_meta ~dims:(Z.Space.dims space) ~depth:(Z.Space.depth space)
              ~leaf_capacity:(Zindex.leaf_capacity index)
              ~count:(List.length entries)
              ~page_budget:(Option.value ~default:0 (Zindex.page_budget index))));
      (* Greedy packing against the exact encoded size. *)
      let data_pages = ref 0 in
      let zs = ref [] and ps = ref [] and n = ref 0 in
      let bytes = ref page_overhead in
      let prev = ref 0 in
      let flush_page () =
        if !n > 0 then begin
          let page =
            encode_page ~total (Array.of_list (List.rev !zs)) (List.rev !ps)
          in
          assert (Bytes.length page <= capacity);
          ignore (FP.alloc store page);
          incr data_pages;
          zs := [];
          ps := [];
          n := 0;
          bytes := page_overhead
        end
      in
      List.iter
        (fun (_, (p, v)) ->
          let z = Z.Interleave.rank space p in
          let payload = encode v in
          let plen = String.length payload in
          if plen > 0xFFFF then invalid_arg "Persist: payload too long";
          let cost = entry_cost ~total ~index:!n ~prev:!prev z plen in
          if !n > 0 && !bytes + cost > capacity then flush_page ();
          let cost =
            if !n = 0 then entry_cost ~total ~index:0 ~prev:!prev z plen else cost
          in
          if page_overhead + cost > capacity then
            invalid_arg "Persist.save: entry larger than a page";
          zs := z :: !zs;
          ps := payload :: !ps;
          bytes := !bytes + cost;
          prev := z;
          incr n)
        entries;
      flush_page ();
      FP.commit_batch store;
      FP.close store;
      !data_pages
    with e -> save_error_cleanup store tmp e
  in
  Faulty_io.rename io ~src:tmp ~dst:path;
  data_pages

(* {1 Load} *)

let load ?(io = Faulty_io.none) ?(lenient = false) ~path ~decode () =
  let store = FP.open_existing ~io path in
  Fun.protect
    ~finally:(fun () -> FP.close store)
    (fun () ->
      let meta = ref None in
      let entries = ref [] in
      FP.iter store (fun _slot payload ->
          match !meta with
          | None ->
              (* Slot order is id order; the metadata page was written
                 first. *)
              meta := Some (decode_meta ~path payload)
          | Some m ->
              let zs, payloads = decode_page ~path payload in
              Array.iteri
                (fun i z ->
                  let p =
                    try Z.Interleave.point_of_rank m.space z
                    with Invalid_argument msg -> Storage_error.corrupt ~path msg
                  in
                  entries := (p, decode payloads.(i)) :: !entries)
                zs);
      match !meta with
      | None -> Storage_error.corrupt ~path "empty store: no index metadata page"
      | Some m ->
          let entries = Array.of_list (List.rev !entries) in
          if Array.length entries <> m.count && not lenient then
            Storage_error.corrupt ~path
              (Printf.sprintf "entry count mismatch: metadata says %d, found %d"
                 m.count (Array.length entries));
          Zindex.of_points ~leaf_capacity:m.leaf_capacity
            ?page_budget:m.page_budget m.space entries)

(* {1 Inspection (fsck)} *)

type info = {
  version : int;
  dims : int;
  depth : int;
  count : int;  (* per metadata *)
  found : int;  (* entries actually decoded *)
  data_pages : int;
  page_budget : int option;
  page_errors : (int * string) list;  (* slot, problem *)
}

let inspect ?(io = Faulty_io.none) ~path () =
  let store = FP.open_existing ~io path in
  Fun.protect
    ~finally:(fun () -> FP.close store)
    (fun () ->
      let meta = ref None in
      let found = ref 0 and data_pages = ref 0 in
      let errors = ref [] in
      FP.iter store (fun slot payload ->
          match !meta with
          | None -> meta := Some (decode_meta ~path payload)
          | Some _ -> (
              incr data_pages;
              match
                (* Deep-check the run structure, not just decodability. *)
                let s = Bytes.unsafe_to_string payload in
                if Bytes.length payload >= 4 then begin
                  let run_bytes = (Char.code s.[2] lsl 8) lor Char.code s.[3] in
                  if 4 + run_bytes <= String.length s then
                    match Z.Zrun.validate (Z.Zrun.of_string ~pos:4 ~len:run_bytes s) with
                    | Ok () -> ()
                    | Error msg -> Storage_error.corrupt ~path msg
                end;
                let zs, _ = decode_page ~path payload in
                Array.length zs
              with
              | n -> found := !found + n
              | exception Storage_error.Corrupt { what; _ } ->
                  errors := (slot, what) :: !errors
              | exception Invalid_argument msg ->
                  errors := (slot, msg) :: !errors));
      match !meta with
      | None -> Storage_error.corrupt ~path "empty store: no index metadata page"
      | Some m ->
          {
            version = 3;
            dims = Z.Space.dims m.space;
            depth = Z.Space.depth m.space;
            count = m.count;
            found = !found;
            data_pages = !data_pages;
            page_budget = m.page_budget;
            page_errors = List.rev !errors;
          })
