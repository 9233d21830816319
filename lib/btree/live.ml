module Z = Sqp_zorder
module FP = Sqp_storage.File_pager
module Storage_error = Sqp_storage.Storage_error
module Metrics = Sqp_obs.Metrics
module Cow = Cowtree.Make (Int)

type 'a op =
  | Insert of Sqp_geom.Point.t * 'a
  | Delete of Sqp_geom.Point.t

(* A published version: the frozen tree plus the sequence number of the
   last batch folded into it.  Readers load this with one [Atomic.get]. *)
type 'a version = { tree : (Sqp_geom.Point.t * 'a) Cow.t; vseq : int }

type 'a feed = { buf : (int * 'a op list) Queue.t; mutable live : bool }

type 'a t = {
  space : Z.Space.t;
  encode : 'a -> string;
  decode : string -> 'a;
  lc : int;
  ic : int;
  version : 'a version Atomic.t;
  writer : Mutex.t;
  mutable store : FP.t option;
  mutable feeds : 'a feed list;
  m_batches : Metrics.counter;
  m_inserts : Metrics.counter;
  m_deletes : Metrics.counter;
  m_chunks : Metrics.counter;
  m_checkpoints : Metrics.counter;
  m_entries : Metrics.gauge;
}

type 'a snapshot = { s_space : Z.Space.t; s_tree : (Sqp_geom.Point.t * 'a) Cow.t; s_seq : int }

type scan_stats = { entries_scanned : int; elements : int; results : int; pages : int }

(* {1 Record codecs}

   One page store per table; each record (page payload) starts with a
   tag byte: 'M' metadata, 'Z' a front-coded base-image chunk (a
   {!Sqp_zorder.Zrun} of the entries' z values, then their payloads),
   'L' a logged batch part.  Any other tag is corrupt.  A batch too big
   for one page is split over parts allocated in the same atomic store
   batch, so it is still all-or-nothing. *)

let magic = "SQPL1"

let buf_u8 b v = Buffer.add_char b (Char.chr (v land 0xff))

let buf_u16 b v =
  buf_u8 b (v lsr 8);
  buf_u8 b v

let buf_u32 b v =
  buf_u16 b (v lsr 16);
  buf_u16 b v

let buf_i64 b v =
  buf_u32 b (v lsr 32);
  buf_u32 b v

let buf_str b s =
  if String.length s > 0xffff then invalid_arg "Live: payload exceeds 65535 bytes";
  buf_u16 b (String.length s);
  Buffer.add_string b s

type reader = { data : string; mutable pos : int; r_path : string }

let fail r what = Storage_error.corrupt ~path:r.r_path what

let need r n = if r.pos + n > String.length r.data then fail r "truncated live record"

let rd_u8 r =
  need r 1;
  let v = Char.code r.data.[r.pos] in
  r.pos <- r.pos + 1;
  v

let rd_u16 r =
  let hi = rd_u8 r in
  (hi lsl 8) lor rd_u8 r

let rd_u32 r =
  let hi = rd_u16 r in
  (hi lsl 16) lor rd_u16 r

let rd_i64 r =
  let hi = rd_u32 r in
  (hi lsl 32) lor rd_u32 r

let rd_str r =
  let n = rd_u16 r in
  need r n;
  let s = String.sub r.data r.pos n in
  r.pos <- r.pos + n;
  s

let encode_point space b p =
  if Array.length p <> Z.Space.dims space then invalid_arg "Live: point arity mismatch";
  Array.iter
    (fun c ->
      if not (Z.Space.valid_coord space c) then invalid_arg "Live: coordinate out of space";
      buf_u32 b c)
    p

let decode_point space r = Array.init (Z.Space.dims space) (fun _ -> rd_u32 r)

let encode_op t op =
  let b = Buffer.create 32 in
  (match op with
  | Insert (p, v) ->
      buf_u8 b 0;
      encode_point t.space b p;
      buf_str b (t.encode v)
  | Delete p ->
      buf_u8 b 1;
      encode_point t.space b p);
  Buffer.contents b

let decode_op ~space ~decode r =
  match rd_u8 r with
  | 0 ->
      let p = decode_point space r in
      let v = decode (rd_str r) in
      Insert (p, v)
  | 1 -> Delete (decode_point space r)
  | n -> fail r (Printf.sprintf "unknown live op tag %d" n)

(* Greedy packing of encoded items into parts of at most [cap] bytes
   (beyond the fixed per-part header). *)
let pack ~cap ~header items =
  let parts = ref [] and cur = ref [] and cur_bytes = ref header in
  List.iter
    (fun item ->
      let n = String.length item in
      if header + n > cap then invalid_arg "Live: record exceeds page capacity";
      if !cur_bytes + n > cap then begin
        parts := List.rev !cur :: !parts;
        cur := [];
        cur_bytes := header
      end;
      cur := item :: !cur;
      cur_bytes := !cur_bytes + n)
    items;
  if !cur <> [] then parts := List.rev !cur :: !parts;
  List.rev !parts

let meta_record space ~base_seq =
  let b = Buffer.create 16 in
  buf_u8 b (Char.code 'M');
  Buffer.add_string b magic;
  buf_u8 b (Z.Space.dims space);
  buf_u8 b (Z.Space.depth space);
  buf_i64 b base_seq;
  Buffer.to_bytes b

let log_header_bytes = 1 + 8 + 2 + 2 (* 'L' seq part count *)

(* 'Z' part:u32 count:u16 run_bytes:u16, then the run header. *)
let z_base_header_bytes = 1 + 4 + 2 + 2 + Z.Zrun.header_bytes

(* Allocate the front-coded 'Z' base-image chunks for [entries]
   (already in z order) inside the currently open store batch. *)
let alloc_base t store entries =
  let cap = FP.payload_capacity store in
  let total = Z.Space.total_bits t.space in
  (* Greedy byte-exact packing against the run's encoded size. *)
  let parts = ref [] and zs = ref [] and ps = ref [] and n = ref 0 in
  let bytes = ref z_base_header_bytes in
  let prev = ref 0 in
  let flush () =
    if !n > 0 then begin
      parts := (List.rev !zs, List.rev !ps) :: !parts;
      zs := [];
      ps := [];
      n := 0;
      bytes := z_base_header_bytes
    end
  in
  List.iter
    (fun (p, v) ->
      let z = Z.Interleave.rank t.space p in
      let payload = t.encode v in
      let plen = String.length payload in
      let cost_at index prev = Z.Zrun.entry_bytes ~bits:total ~index ~prev z + 2 + plen in
      let cost = cost_at !n !prev in
      if !n > 0 && !bytes + cost > cap then flush ();
      let cost = if !n = 0 then cost_at 0 !prev else cost in
      if z_base_header_bytes + cost > cap then
        invalid_arg "Live: record exceeds page capacity";
      zs := z :: !zs;
      ps := payload :: !ps;
      bytes := !bytes + cost;
      prev := z;
      incr n)
    entries;
  flush ();
  List.iteri
    (fun part (zl, pl) ->
      let rs = Z.Zrun.to_string (Z.Zrun.encode ~bits:total (Array.of_list zl)) in
      let b = Buffer.create cap in
      buf_u8 b (Char.code 'Z');
      buf_u32 b part;
      buf_u16 b (List.length zl);
      buf_u16 b (String.length rs);
      Buffer.add_string b rs;
      List.iter (fun payload -> buf_str b payload) pl;
      ignore (FP.alloc store (Buffer.to_bytes b)))
    (List.rev !parts)

let alloc_log t store ~seq ops =
  let encoded = List.map (encode_op t) ops in
  let cap = FP.payload_capacity store in
  List.iteri
    (fun part items ->
      let b = Buffer.create cap in
      buf_u8 b (Char.code 'L');
      buf_i64 b seq;
      buf_u16 b part;
      buf_u16 b (List.length items);
      List.iter (Buffer.add_string b) items;
      ignore (FP.alloc store (Buffer.to_bytes b)))
    (pack ~cap ~header:log_header_bytes encoded)

(* {1 Construction} *)

(* Entries are keyed by their pixel's int z key; merges compare them
   with the int bounds of [Decompose.key_ranges]. *)
let zval space p = Z.Zkernel.point_key space p

let make_t ?(leaf_capacity = 20) ?(internal_capacity = 20) ~encode ~decode ~store space
    tree vseq =
  let reg = Metrics.global () in
  let t =
    {
      space;
      encode;
      decode;
      lc = leaf_capacity;
      ic = internal_capacity;
      version = Atomic.make { tree; vseq };
      writer = Mutex.create ();
      store;
      feeds = [];
      m_batches = Metrics.counter reg "ingest.batches";
      m_inserts = Metrics.counter reg "ingest.inserts";
      m_deletes = Metrics.counter reg "ingest.deletes";
      m_chunks = Metrics.counter reg "ingest.backfill_chunks";
      m_checkpoints = Metrics.counter reg "ingest.checkpoints";
      m_entries = Metrics.gauge reg "ingest.entries";
    }
  in
  Metrics.set_gauge t.m_entries (Cow.length tree);
  t

let create ?(leaf_capacity = 20) ?(internal_capacity = 20) ~encode ~decode space =
  make_t ~leaf_capacity ~internal_capacity ~encode ~decode ~store:None space
    (Cow.empty ~leaf_capacity ~internal_capacity ())
    0

let check_point fn space p =
  if Array.length p <> Z.Space.dims space then invalid_arg (fn ^ ": point arity mismatch");
  for i = 0 to Array.length p - 1 do
    if not (Z.Space.valid_coord space p.(i)) then
      invalid_arg (fn ^ ": coordinate out of space")
  done

(* The table one [apply] of these inserts leaves on a fresh [create]:
   a stable sort keeps equal points in their input order, as inserts
   that land after their equals do, and the leaves are packed full. *)
let of_entries ~encode ~decode space entries =
  Array.iter (fun (p, _) -> check_point "Live.of_entries" space p) entries;
  let keys = Array.map (fun (p, _) -> zval space p) entries in
  let order = Z.Zkernel.sort_point_keys space keys in
  make_t ~encode ~decode ~store:None space
    (Cow.of_sorted_array (Array.mapi (fun r i -> (keys.(r), entries.(i))) order))
    (if Array.length entries = 0 then 0 else 1)

let create_durable ?io ?(page_bytes = 1024) ?(leaf_capacity = 20)
    ?(internal_capacity = 20) ~encode ~decode ~path space =
  let store = FP.create ?io ~page_bytes path in
  ignore (FP.alloc store (meta_record space ~base_seq:0));
  make_t ~leaf_capacity ~internal_capacity ~encode ~decode ~store:(Some store) space
    (Cow.empty ~leaf_capacity ~internal_capacity ())
    0

(* Rebuild the logical state (space, tree, last seq) from an open store:
   the base-image chunks in part order, then every logged batch past the
   base in sequence order. *)
let load_store ~decode ~leaf_capacity ~internal_capacity ~path store =
  let meta = ref None in
  let bases = ref [] (* (part, z run, reader at first payload) *) in
  let logs = ref [] (* (seq, part, reader at first op, count) *) in
  FP.iter store (fun _slot payload ->
      let r = { data = Bytes.to_string payload; pos = 0; r_path = path } in
      match Char.chr (rd_u8 r) with
      | 'M' ->
          need r (String.length magic);
          let m = String.sub r.data r.pos (String.length magic) in
          r.pos <- r.pos + String.length magic;
          if m <> magic then fail r "bad live-table magic";
          let dims = rd_u8 r in
          let depth = rd_u8 r in
          let base_seq = rd_i64 r in
          if !meta <> None then fail r "duplicate live-table metadata";
          let space =
            try Z.Space.make ~dims ~depth
            with Invalid_argument msg -> fail r ("live-table metadata: " ^ msg)
          in
          meta := Some (space, base_seq)
      | 'Z' ->
          let part = rd_u32 r in
          let count = rd_u16 r in
          let run_bytes = rd_u16 r in
          need r run_bytes;
          let run =
            try Z.Zrun.of_string ~pos:r.pos ~len:run_bytes r.data
            with Invalid_argument msg -> fail r msg
          in
          r.pos <- r.pos + run_bytes;
          if Z.Zrun.count run <> count then
            fail r "base chunk entry count disagrees with its z run";
          bases := (part, run, r) :: !bases
      | 'L' ->
          let seq = rd_i64 r in
          let part = rd_u16 r in
          let count = rd_u16 r in
          logs := (seq, part, r, count) :: !logs
      | c -> fail r (Printf.sprintf "unknown live record tag %C" c)
      | exception Invalid_argument _ -> fail r "unknown live record tag");
  let space, base_seq =
    match !meta with
    | Some m -> m
    | None -> Storage_error.corrupt ~path "live table has no metadata record"
  in
  let entries = ref [] in
  List.iter
    (fun (_, run, r) ->
      let zs = try Z.Zrun.decode run with Invalid_argument msg -> fail r msg in
      Array.iter
        (fun z ->
          let p =
            try Z.Interleave.point_of_rank space z with Invalid_argument msg -> fail r msg
          in
          let v = decode (rd_str r) in
          entries := (zval space p, (p, v)) :: !entries)
        zs)
    (List.sort (fun (a, _, _) (b, _, _) -> compare a b) !bases);
  let entries = Array.of_list (List.rev !entries) in
  let tree =
    try Cow.of_sorted_array ~leaf_capacity ~internal_capacity entries
    with Invalid_argument _ ->
      Storage_error.corrupt ~path "live base image out of z order"
  in
  let tree = ref tree and last_seq = ref base_seq in
  List.iter
    (fun (seq, _, r, count) ->
      if seq > base_seq then begin
        for _ = 1 to count do
          match decode_op ~space ~decode r with
          | Insert (p, v) -> tree := Cow.insert !tree (zval space p) (p, v)
          | Delete p -> (
              match Cow.remove !tree (zval space p) with
              | Some tr -> tree := tr
              | None -> ())
        done;
        if seq > !last_seq then last_seq := seq
      end)
    (List.sort
       (fun (s1, p1, _, _) (s2, p2, _, _) -> compare (s1, p1) (s2, p2))
       !logs);
  (space, !tree, !last_seq)

let open_durable ?io ?(leaf_capacity = 20) ?(internal_capacity = 20) ~encode ~decode
    ~path () =
  let store = FP.open_existing ?io path in
  let space, tree, last_seq =
    try load_store ~decode ~leaf_capacity ~internal_capacity ~path store
    with e ->
      (try FP.close store with _ -> ());
      raise e
  in
  make_t ~leaf_capacity ~internal_capacity ~encode ~decode ~store:(Some store) space
    tree last_seq

let close t = match t.store with None -> () | Some s -> FP.close s

let durable_ok t = match t.store with None -> true | Some s -> not (FP.is_closed s)

let space t = t.space

let length t = (Atomic.get t.version).tree |> Cow.length

let seq t = (Atomic.get t.version).vseq

(* {1 Mutation} *)

let apply_op_mem space tree op =
  match op with
  | Insert (p, v) -> (Cow.insert tree (zval space p) (p, v), true)
  | Delete p -> (
      match Cow.remove tree (zval space p) with
      | Some tr -> (tr, true)
      | None -> (tree, false))

let apply t ops =
  match ops with
  | [] -> ((Atomic.get t.version).vseq, 0)
  | _ ->
      List.iter (function Insert (p, _) | Delete p -> check_point "Live.apply" t.space p) ops;
      Mutex.protect t.writer (fun () ->
          let cur = Atomic.get t.version in
          let seq = cur.vseq + 1 in
          (* Durability first: if the store batch dies, memory is
             untouched and a reopen sees the pre-batch state. *)
          (match t.store with
          | None -> ()
          | Some store -> (
              FP.begin_batch store;
              match alloc_log t store ~seq ops with
              | () -> FP.commit_batch store
              | exception e ->
                  (* An encode failure leaves the batch open — roll it
                     back so the next apply can begin one.  (A failed
                     commit already poisoned and closed the handle.) *)
                  if FP.in_batch store then (try FP.abort_batch store with _ -> ());
                  raise e));
          let tree, applied =
            List.fold_left
              (fun (tr, n) op ->
                let tr, did = apply_op_mem t.space tr op in
                (match op with
                | Insert _ -> Metrics.incr t.m_inserts
                | Delete _ -> if did then Metrics.incr t.m_deletes);
                (tr, if did then n + 1 else n))
              (cur.tree, 0) ops
          in
          Atomic.set t.version { tree; vseq = seq };
          Metrics.incr t.m_batches;
          Metrics.set_gauge t.m_entries (Cow.length tree);
          List.iter (fun f -> if f.live then Queue.push (seq, ops) f.buf) t.feeds;
          (seq, applied))

let insert t p v = fst (apply t [ Insert (p, v) ])

let delete t p = snd (apply t [ Delete p ]) = 1

(* {1 Snapshots} *)

let snapshot_of t v = { s_space = t.space; s_tree = v.tree; s_seq = v.vseq }

let snapshot t = snapshot_of t (Atomic.get t.version)

let snapshot_seq s = s.s_seq

let snapshot_space s = s.s_space

let snapshot_length s = Cow.length s.s_tree

let snapshot_entries s =
  let acc = ref [] in
  Cow.iter s.s_tree (fun _ e -> acc := e :: !acc);
  List.rev !acc

let find s p = Option.map snd (Cow.find s.s_tree (zval s.s_space p))

(* First index in [khi] with [khi.(i) >= z]: the jump into B. *)
let first_live khi z =
  let lo = ref 0 and hi = ref (Array.length khi) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if khi.(mid) < z then lo := mid + 1 else hi := mid
  done;
  !lo

(* Section 3.3's merge over the frozen tree: identical in shape to
   [Zindex.merge_with_elements] with the eager decomposition, counting
   the leaves its cursor stands on as the data pages it reads.  Beyond
   the key ranges it allocates one cursor, which every jump into P
   re-seeks in place. *)
let range_iter s box f =
  if Sqp_geom.Box.dims box <> Z.Space.dims s.s_space then
    invalid_arg "Live.range_iter: dimension mismatch";
  match Sqp_geom.Box.clip box ~side:(Z.Space.side s.s_space) with
  | None -> { entries_scanned = 0; elements = 0; results = 0; pages = 0 }
  | Some box ->
      let { Z.Zkernel.klo; khi } =
        Z.Decompose.key_ranges s.s_space ~lo:box.Sqp_geom.Box.lo ~hi:box.Sqp_geom.Box.hi
      in
      let n = Array.length klo in
      let scanned = ref 0 and results = ref 0 and pages = ref 0 in
      if n > 0 then begin
        let c = Cow.seek s.s_tree klo.(0) in
        let ei = ref 0 in
        while !ei < n && Cow.cursor_valid c do
          let z = Cow.cursor_key c in
          incr scanned;
          if khi.(!ei) < z then
            (* Random access into B: skip dead elements wholesale. *)
            ei := first_live khi z
          else if z < klo.(!ei) then
            (* Random access into P: jump the cursor forward. *)
            Cow.cursor_reseek c klo.(!ei)
          else begin
            let ((p, _) as e) = Cow.cursor_value c in
            if Sqp_geom.Box.contains_point box p then begin
              incr results;
              f e
            end;
            Cow.cursor_next c
          end
        done;
        pages := Cow.cursor_leaves c
      end;
      { entries_scanned = !scanned; elements = n; results = !results; pages = !pages }

let range_search s box =
  let acc = ref [] in
  let stats = range_iter s box (fun e -> acc := e :: !acc) in
  (List.rev !acc, stats)

let equi_join sa sb =
  if Z.Space.dims sa.s_space <> Z.Space.dims sb.s_space
     || Z.Space.depth sa.s_space <> Z.Space.depth sb.s_space
  then invalid_arg "Live.equi_join: spaces differ";
  let ca = Cow.seek_first sa.s_tree and cb = Cow.seek_first sb.s_tree in
  let acc = ref [] in
  (* Collect the full run of entries at key [z] from a cursor. *)
  let run c z =
    let out = ref [] in
    while Cow.cursor_valid c && Cow.cursor_key c = z do
      out := Cow.cursor_value c :: !out;
      Cow.cursor_next c
    done;
    List.rev !out
  in
  while Cow.cursor_valid ca && Cow.cursor_valid cb do
    let za = Cow.cursor_key ca and zb = Cow.cursor_key cb in
    if za < zb then Cow.cursor_next ca
    else if za > zb then Cow.cursor_next cb
    else begin
      let ra = run ca za and rb = run cb za in
      List.iter (fun a -> List.iter (fun b -> acc := (a, b) :: !acc) rb) ra
    end
  done;
  List.rev !acc

(* {1 Online rebuild and checkpoint} *)

(* Rewrite the durable store to a fresh base image at [v], truncating
   the log — one atomic store batch, so a crash leaves either the old
   store (base + log) or the new one, complete. *)
let checkpoint_locked t (v : 'a version) =
  match t.store with
  | None -> ()
  | Some store ->
      let old = ref [] in
      FP.iter store (fun slot _ -> old := slot :: !old);
      let entries = ref [] in
      Cow.iter v.tree (fun _ e -> entries := e :: !entries);
      FP.begin_batch store;
      (match
         List.iter (FP.free store) !old;
         ignore (FP.alloc store (meta_record t.space ~base_seq:v.vseq));
         alloc_base t store (List.rev !entries)
       with
      | () -> FP.commit_batch store
      | exception e ->
          if FP.in_batch store then (try FP.abort_batch store with _ -> ());
          raise e);
      Metrics.incr t.m_checkpoints

let checkpoint t =
  Mutex.protect t.writer (fun () -> checkpoint_locked t (Atomic.get t.version))

(* A failed commit poisons and closes the page-store handle (the journal
   alone knows which side of the commit the disk landed on), so recovery
   is a reopen: run journal recovery, then rebuild the in-memory tree
   from whatever state the disk settled at.  Memory is only ever mutated
   after a successful commit, so the reload can only agree with, or
   supersede (journal replay), what readers were already seeing. *)
let recover t =
  Mutex.protect t.writer (fun () ->
      match t.store with
      | None -> ()
      | Some store when not (FP.is_closed store) -> ()
      | Some store ->
          let path = FP.path store in
          let io = FP.injector store in
          let store' = FP.open_existing ~io path in
          let space, tree, last_seq =
            load_store ~decode:t.decode ~leaf_capacity:t.lc ~internal_capacity:t.ic
              ~path store'
          in
          if
            Z.Space.dims space <> Z.Space.dims t.space
            || Z.Space.depth space <> Z.Space.depth t.space
          then begin
            FP.close store';
            Storage_error.corrupt ~path "recovered live table has a different space"
          end;
          t.store <- Some store';
          Atomic.set t.version { tree; vseq = last_seq };
          Metrics.set_gauge t.m_entries (Cow.length tree);
          (* Journal recovery only reads (or truncates), so it cannot
             tell whether the disk that poisoned the store is writable
             again.  Probe with a checkpoint — one atomic batch — so a
             still-full disk surfaces as Io_error here, not on the next
             acked mutation.  On failure the batch is aborted (or the
             handle re-poisoned) and the error propagates: the table
             stays unrecovered. *)
          checkpoint_locked t { tree; vseq = last_seq })

let rebuild_online ?(chunk_size = 256) ?on_chunk t =
  if chunk_size < 1 then invalid_arg "Live.rebuild_online: chunk_size < 1";
  (* Subscribe and snapshot atomically, so every batch is in exactly one
     of {snapshot, feed}. *)
  let feed = { buf = Queue.create (); live = true } in
  let v0 =
    Mutex.protect t.writer (fun () ->
        t.feeds <- feed :: t.feeds;
        Atomic.get t.version)
  in
  (* Backfill: walk the frozen snapshot in z order, one chunk at a time.
     Writers keep committing concurrently; their batches queue up in the
     feed. *)
  let acc = ref [] in
  let c = Cow.seek_first v0.tree in
  let chunk = ref 0 in
  let rec scan n =
    if Cow.cursor_valid c then begin
      acc := (Cow.cursor_key c, Cow.cursor_value c) :: !acc;
      Cow.cursor_next c;
      if n + 1 >= chunk_size then begin
        Metrics.incr t.m_chunks;
        (match on_chunk with Some f -> f !chunk | None -> ());
        incr chunk;
        scan 0
      end
      else scan (n + 1)
    end
  in
  scan 0;
  let building =
    ref
      (Cow.of_sorted_array ~leaf_capacity:t.lc ~internal_capacity:t.ic
         (Array.of_list (List.rev !acc)))
  in
  let apply_feed batches =
    List.iter
      (fun (_seq, ops) ->
        List.iter
          (fun op -> building := fst (apply_op_mem t.space !building op))
          ops)
      batches
  in
  (* Catch-up: drain the feed without the lock until it runs dry, then
     take the lock for the final drain and the swap. *)
  let drain () =
    Mutex.protect t.writer (fun () ->
        let out = ref [] in
        Queue.iter (fun b -> out := b :: !out) feed.buf;
        Queue.clear feed.buf;
        List.rev !out)
  in
  let rec catch_up () =
    match drain () with
    | [] -> ()
    | batches ->
        apply_feed batches;
        catch_up ()
  in
  catch_up ();
  let final =
    Mutex.protect t.writer (fun () ->
        (* Holding the writer lock: no new batch can land, so what is
           left in the feed is the complete delta. *)
        let out = ref [] in
        Queue.iter (fun b -> out := b :: !out) feed.buf;
        apply_feed (List.rev !out);
        feed.live <- false;
        t.feeds <- List.filter (fun f -> f != feed) t.feeds;
        let cur = Atomic.get t.version in
        (* Swap in the freshly packed tree (same contents, tight pages)
           and checkpoint the store at this state. *)
        let packed_entries = ref [] in
        Cow.iter !building (fun z e -> packed_entries := (z, e) :: !packed_entries);
        let packed =
          Cow.of_sorted_array ~leaf_capacity:t.lc ~internal_capacity:t.ic
            (Array.of_list (List.rev !packed_entries))
        in
        let v = { tree = packed; vseq = cur.vseq } in
        checkpoint_locked t v;
        Atomic.set t.version v;
        v)
  in
  (snapshot_of t final, final.vseq)

let save_index ?io ?(page_bytes = 1024) ~path t =
  let snap, at_seq = rebuild_online t in
  let index = Zindex.of_points t.space (Array.of_list (snapshot_entries snap)) in
  ignore (Persist.save ?io ~path ~page_bytes ~encode:t.encode index);
  at_seq
