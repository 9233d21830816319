module Pager = Sqp_storage.Pager
module Buffer_pool = Sqp_storage.Buffer_pool

type t = {
  name : string;
  schema : Schema.t;
  pager : Relation.tuple array Pager.t;
  page_ids : Pager.page_id array;
  pool : Relation.tuple array Buffer_pool.t;
  cardinality : int;
  tuples_per_page : int;
  latch : Mutex.t;
      (* Serializes access to the buffer pool (whose frame table and
         replacement state are unsynchronized) so concurrent server
         sessions may scan the same stored relation — the relational
         analogue of a page latch. *)
}

let store ?name ?(tuples_per_page = 32) ?(pool_capacity = 8) ?policy r =
  if tuples_per_page < 1 then invalid_arg "Stored.store: tuples_per_page < 1";
  let name = match name with Some n -> n | None -> Relation.name r in
  let pager = Pager.create () in
  let tuples = Array.of_list (Relation.tuples r) in
  let n = Array.length tuples in
  let npages = (n + tuples_per_page - 1) / tuples_per_page in
  let page_ids =
    Array.init npages (fun p ->
        let base = p * tuples_per_page in
        let len = min tuples_per_page (n - base) in
        Pager.alloc pager (Array.sub tuples base len))
  in
  {
    name;
    schema = Relation.schema r;
    pager;
    page_ids;
    pool = Buffer_pool.create ?policy ~capacity:pool_capacity pager;
    cardinality = n;
    tuples_per_page;
    latch = Mutex.create ();
  }

let name t = t.name

let schema t = t.schema

let cardinality t = t.cardinality

let pages t = Array.length t.page_ids

let tuples_per_page t = t.tuples_per_page

let stats t = Pager.stats t.pager

(* {2 Durable form}

   A stored relation can be dumped to a real file through the journaled
   {!Sqp_storage.File_pager}, one store page per in-memory page group, so
   relation snapshots get the same crash-safety as the spatial index.

   Meta page payload: "SQPR" | tuples_per_page:u16 | cardinality:i64 |
   name_len:u16 | name | attr_count:u16 |
   attr_count x ( ty:u8 | name_len:u16 | name ).
   Data page payload: count:u16 | count x tuple; each value is tagged:
   0=Null, 1=Int:i64, 2=Float:i64 (IEEE bits), 3=Str:u32|bytes,
   4=Bool:u8, 5=Zval:u32|bits-as-text. *)

module FP = Sqp_storage.File_pager
module Storage_error = Sqp_storage.Storage_error

let rel_magic = "SQPR"

let ty_tag = function
  | Value.TInt -> 1
  | Value.TFloat -> 2
  | Value.TStr -> 3
  | Value.TBool -> 4
  | Value.TZval -> 5

let ty_of_tag ~path = function
  | 1 -> Value.TInt
  | 2 -> Value.TFloat
  | 3 -> Value.TStr
  | 4 -> Value.TBool
  | 5 -> Value.TZval
  | n -> Storage_error.corrupt ~path (Printf.sprintf "unknown attribute type tag %d" n)

let add_u16 b n =
  if n < 0 || n > 0xFFFF then invalid_arg "Stored.save_to: value out of u16 range";
  Buffer.add_uint16_be b n

let add_str b s =
  if String.length s > 0xFFFF then invalid_arg "Stored.save_to: name too long";
  add_u16 b (String.length s);
  Buffer.add_string b s

let add_value b = function
  | Value.Null -> Buffer.add_uint8 b 0
  | Value.Int i ->
      Buffer.add_uint8 b 1;
      Buffer.add_int64_be b (Int64.of_int i)
  | Value.Float f ->
      Buffer.add_uint8 b 2;
      Buffer.add_int64_be b (Int64.bits_of_float f)
  | Value.Str s ->
      Buffer.add_uint8 b 3;
      Buffer.add_int32_be b (Int32.of_int (String.length s));
      Buffer.add_string b s
  | Value.Bool v ->
      Buffer.add_uint8 b 4;
      Buffer.add_uint8 b (if v then 1 else 0)
  | Value.Zval z ->
      let s = Sqp_zorder.Bitstring.to_string z in
      Buffer.add_uint8 b 5;
      Buffer.add_int32_be b (Int32.of_int (String.length s));
      Buffer.add_string b s

let encode_rel_meta t =
  let b = Buffer.create 64 in
  Buffer.add_string b rel_magic;
  add_u16 b t.tuples_per_page;
  Buffer.add_int64_be b (Int64.of_int t.cardinality);
  add_str b t.name;
  let attrs = Schema.attrs t.schema in
  add_u16 b (List.length attrs);
  List.iter
    (fun (n, ty) ->
      Buffer.add_uint8 b (ty_tag ty);
      add_str b n)
    attrs;
  Buffer.to_bytes b

let encode_rel_page tuples =
  let b = Buffer.create 256 in
  add_u16 b (Array.length tuples);
  Array.iter (fun tup -> Array.iter (add_value b) tup) tuples;
  Buffer.to_bytes b

(* A little cursor over a page payload, bounds-checked so torn or
   hand-damaged payloads surface as [Corrupt], not [Invalid_argument]. *)
type cursor = { cpath : string; buf : bytes; mutable pos : int }

let need c n =
  if c.pos + n > Bytes.length c.buf then
    Storage_error.corrupt ~path:c.cpath "relation page payload truncated"

let get_u8 c = need c 1; let v = Bytes.get_uint8 c.buf c.pos in c.pos <- c.pos + 1; v

let get_u16 c = need c 2; let v = Bytes.get_uint16_be c.buf c.pos in c.pos <- c.pos + 2; v

let get_i64 c =
  need c 8;
  let v = Bytes.get_int64_be c.buf c.pos in
  c.pos <- c.pos + 8;
  v

let get_len32 c =
  need c 4;
  let v = Int32.to_int (Bytes.get_int32_be c.buf c.pos) in
  c.pos <- c.pos + 4;
  if v < 0 then Storage_error.corrupt ~path:c.cpath "negative length in relation page";
  v

let get_str c n = need c n; let s = Bytes.sub_string c.buf c.pos n in c.pos <- c.pos + n; s

let get_sized_str c =
  let n = get_len32 c in
  get_str c n

(* A z value's text; [Bitstring.of_string] refuses anything but at most
   [Space.max_total_bits] characters, each '0' or '1'. *)
let get_zval c =
  try Sqp_zorder.Bitstring.of_string (get_sized_str c)
  with Invalid_argument m -> Storage_error.corrupt ~path:c.cpath ("bad z value: " ^ m)

let get_value c =
  match get_u8 c with
  | 0 -> Value.Null
  | 1 -> Value.Int (Int64.to_int (get_i64 c))
  | 2 -> Value.Float (Int64.float_of_bits (get_i64 c))
  | 3 -> Value.Str (get_sized_str c)
  | 4 -> Value.Bool (get_u8 c <> 0)
  | 5 -> Value.Zval (get_zval c)
  | n -> Storage_error.corrupt ~path:c.cpath (Printf.sprintf "unknown value tag %d" n)

let save_to ?io ~path ?(page_bytes = 4096) t =
  let io = match io with Some i -> i | None -> Sqp_storage.Faulty_io.none in
  (* Same atomic-replace protocol as Persist.save: journaled batch into a
     temporary store, then rename over the destination. *)
  let tmp = path ^ ".tmp" in
  let store = FP.create ~io ~page_bytes tmp in
  (try
     let capacity = FP.payload_capacity store in
     let put payload =
       if Bytes.length payload > capacity then
         invalid_arg
           (Printf.sprintf
              "Stored.save_to: page payload of %d bytes exceeds capacity %d; raise \
               page_bytes or lower tuples_per_page"
              (Bytes.length payload) capacity);
       ignore (FP.alloc store payload)
     in
     FP.begin_batch store;
     put (encode_rel_meta t);
     Array.iter (fun pid -> put (encode_rel_page (Pager.read t.pager pid))) t.page_ids;
     FP.commit_batch store;
     FP.close store
   with e ->
     FP.close store;
     (try Sys.remove tmp with Sys_error _ -> ());
     (try Sys.remove (Sqp_storage.Journal.journal_path tmp) with Sys_error _ -> ());
     raise e);
  Sqp_storage.Faulty_io.rename io ~src:tmp ~dst:path

let load_from ?io ?pool_capacity ?policy ~path () =
  let io = match io with Some i -> i | None -> Sqp_storage.Faulty_io.none in
  let fp = FP.open_existing ~io path in
  Fun.protect
    ~finally:(fun () -> FP.close fp)
    (fun () ->
      let meta = ref None in
      let tuples = ref [] in
      FP.iter fp (fun _ payload ->
          let c = { cpath = path; buf = payload; pos = 0 } in
          match !meta with
          | None ->
              if get_str c 4 <> rel_magic then
                Storage_error.corrupt ~path "bad relation metadata page";
              let tpp = get_u16 c in
              let cardinality = Int64.to_int (get_i64 c) in
              let name_len = get_u16 c in
              let name = get_str c name_len in
              let nattrs = get_u16 c in
              let attrs = ref [] in
              for _ = 1 to nattrs do
                let ty = ty_of_tag ~path (get_u8 c) in
                let len = get_u16 c in
                attrs := (get_str c len, ty) :: !attrs
              done;
              let attrs = List.rev !attrs in
              meta := Some (tpp, cardinality, name, Schema.make attrs)
          | Some (_, _, _, schema) ->
              let arity = Schema.arity schema in
              let count = get_u16 c in
              for _ = 1 to count do
                let tup = Array.make arity Value.Null in
                for i = 0 to arity - 1 do
                  tup.(i) <- get_value c
                done;
                tuples := tup :: !tuples
              done);
      match !meta with
      | None -> Storage_error.corrupt ~path "empty store: no relation metadata page"
      | Some (tuples_per_page, cardinality, name, schema) ->
          let tuples = List.rev !tuples in
          if List.length tuples <> cardinality then
            Storage_error.corrupt ~path
              (Printf.sprintf "tuple count mismatch: metadata says %d, found %d" cardinality
                 (List.length tuples));
          store ~name ~tuples_per_page ?pool_capacity ?policy
            (Relation.make ~name schema tuples))

let scan t =
  Mutex.lock t.latch;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.latch)
    (fun () ->
      (* Forward page order (a real sequential scan), accumulating
         reversed. *)
      let out = ref [] in
      for p = 0 to Array.length t.page_ids - 1 do
        let page = Buffer_pool.get t.pool t.page_ids.(p) in
        for k = 0 to Array.length page - 1 do
          out := page.(k) :: !out
        done
      done;
      Relation.make ~name:t.name t.schema (List.rev !out))
