(* Binary codecs for values, schemas, relations and closure-free plans.
   Everything here must be total on hostile input: decoders bounds-check
   through the cursor and raise only [Corrupt]. *)

exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun s -> raise (Corrupt s)) fmt

type cursor = { buf : string; mutable pos : int }

let cursor buf = { buf; pos = 0 }

let cursor_at buf pos =
  if pos < 0 || pos > String.length buf then invalid_arg "Wire.cursor_at";
  { buf; pos }

let remaining c = String.length c.buf - c.pos
let at_end c = remaining c = 0

let need c n what = if remaining c < n then corrupt "truncated %s" what

(* {1 Scalars} *)

let write_u8 b v = Buffer.add_char b (Char.chr (v land 0xff))

let read_u8 c =
  need c 1 "u8";
  let v = Char.code c.buf.[c.pos] in
  c.pos <- c.pos + 1;
  v

let write_u32 b v =
  if v < 0 || v > 0xffff_ffff then invalid_arg "Wire.write_u32";
  Buffer.add_int32_be b (Int32.of_int v)

let read_u32 c =
  need c 4 "u32";
  let byte i = Char.code c.buf.[c.pos + i] in
  let v = (byte 0 lsl 24) lor (byte 1 lsl 16) lor (byte 2 lsl 8) lor byte 3 in
  c.pos <- c.pos + 4;
  v

let write_i64 b v = Buffer.add_int64_be b (Int64.of_int v)

let read_i64 c =
  need c 8 "i64";
  let v = ref 0L in
  for i = 0 to 7 do
    v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (Char.code c.buf.[c.pos + i]))
  done;
  c.pos <- c.pos + 8;
  Int64.to_int !v

let write_string b s =
  write_u32 b (String.length s);
  Buffer.add_string b s

let read_string c =
  let n = read_u32 c in
  need c n "string body";
  let s = String.sub c.buf c.pos n in
  c.pos <- c.pos + n;
  s

let write_int_array b a =
  write_u32 b (Array.length a);
  Array.iter (write_i64 b) a

let read_int_array c =
  let n = read_u32 c in
  if n > 64 then corrupt "dimension count %d" n;
  Array.init n (fun _ -> read_i64 c)

let write_point_list b points =
  write_u32 b (List.length points);
  List.iter
    (fun (p, payload) ->
      write_int_array b p;
      write_i64 b payload)
    points

let read_point_list c =
  let n = read_u32 c in
  let out = ref [] in
  for _ = 1 to n do
    let p = read_int_array c in
    let payload = read_i64 c in
    out := (p, payload) :: !out
  done;
  List.rev !out

(* {1 Exact-size encoding}

   Values, schemas and relations are encoded only here, into a [bytes]
   allocated once at its exact length: each [*_size] is an encoded
   length, each [put_*] writes at [pos] and returns the position after
   it.  Their [Buffer] writers append what these write. *)

let put_u8 buf pos v =
  Bytes.set_uint8 buf pos (v land 0xff);
  pos + 1

let put_u32 buf pos v =
  if v < 0 || v > 0xffff_ffff then invalid_arg "Wire.write_u32";
  Bytes.set_int32_be buf pos (Int32.of_int v);
  pos + 4

let put_i64 buf pos v =
  Bytes.set_int64_be buf pos (Int64.of_int v);
  pos + 8

let string_size s = 4 + String.length s

let put_string buf pos s =
  let n = String.length s in
  let pos = put_u32 buf pos n in
  Bytes.blit_string s 0 buf pos n;
  pos + n

let appended size put b v =
  let buf = Bytes.create (size v) in
  ignore (put buf 0 v);
  Buffer.add_bytes b buf

(* {2 Bitstrings}

   Bit length, then the bits packed MSB-first, the last byte zero-padded.
   No bitstring is longer than [Space.max_total_bits], so a longer length
   is corrupt input. *)

module B = Sqp_zorder.Bitstring

let bitstring_size bits = 4 + ((B.length bits + 7) / 8)

let put_bitstring buf pos bits =
  let n = B.length bits in
  let pos = put_u32 buf pos n in
  let nbytes = (n + 7) / 8 in
  for j = 0 to nbytes - 1 do
    let byte = ref 0 in
    for i = 8 * j to min n ((8 * j) + 8) - 1 do
      if B.get bits i then byte := !byte lor (0x80 lsr (i mod 8))
    done;
    Bytes.set_uint8 buf (pos + j) !byte
  done;
  pos + nbytes

let read_bitstring c =
  let n = read_u32 c in
  if n > Sqp_zorder.Space.max_total_bits then
    corrupt "bitstring of %d bits (at most %d)" n Sqp_zorder.Space.max_total_bits;
  let nbytes = (n + 7) / 8 in
  need c nbytes "bitstring body";
  let base = c.pos in
  let bits =
    B.init n (fun i ->
        Char.code c.buf.[base + (i / 8)] land (0x80 lsr (i mod 8)) <> 0)
  in
  c.pos <- c.pos + nbytes;
  bits

(* {2 Values} *)

let int_cell_size = 9

let put_int_cell buf pos i = put_i64 buf (put_u8 buf pos 1) i

let value_size (v : Value.t) =
  match v with
  | Value.Null -> 1
  | Value.Int _ | Value.Float _ -> 9
  | Value.Str s -> 1 + string_size s
  | Value.Bool _ -> 2
  | Value.Zval z -> 1 + bitstring_size z

let put_value buf pos (v : Value.t) =
  match v with
  | Value.Null -> put_u8 buf pos 0
  | Value.Int i -> put_int_cell buf pos i
  | Value.Float f ->
      let pos = put_u8 buf pos 2 in
      Bytes.set_int64_be buf pos (Int64.bits_of_float f);
      pos + 8
  | Value.Str s -> put_string buf (put_u8 buf pos 3) s
  | Value.Bool bo -> put_u8 buf (put_u8 buf pos 4) (if bo then 1 else 0)
  | Value.Zval z -> put_bitstring buf (put_u8 buf pos 5) z

let write_value b v = appended value_size put_value b v

let read_value c : Value.t =
  match read_u8 c with
  | 0 -> Value.Null
  | 1 -> Value.Int (read_i64 c)
  | 2 ->
      need c 8 "float";
      let bits = ref 0L in
      for i = 0 to 7 do
        bits :=
          Int64.logor (Int64.shift_left !bits 8)
            (Int64.of_int (Char.code c.buf.[c.pos + i]))
      done;
      c.pos <- c.pos + 8;
      Value.Float (Int64.float_of_bits !bits)
  | 3 -> Value.Str (read_string c)
  | 4 -> (
      match read_u8 c with
      | 0 -> Value.Bool false
      | 1 -> Value.Bool true
      | n -> corrupt "bool byte %d" n)
  | 5 -> Value.Zval (read_bitstring c)
  | t -> corrupt "unknown value tag %d" t

(* {2 Schemas and relations} *)

let ty_code : Value.ty -> int = function
  | Value.TInt -> 0
  | Value.TFloat -> 1
  | Value.TStr -> 2
  | Value.TBool -> 3
  | Value.TZval -> 4

let ty_of_code = function
  | 0 -> Value.TInt
  | 1 -> Value.TFloat
  | 2 -> Value.TStr
  | 3 -> Value.TBool
  | 4 -> Value.TZval
  | n -> corrupt "unknown type code %d" n

let schema_size s =
  List.fold_left (fun n (name, _) -> n + string_size name + 1) 4 (Schema.attrs s)

let put_schema buf pos s =
  let attrs = Schema.attrs s in
  List.fold_left
    (fun pos (name, ty) -> put_u8 buf (put_string buf pos name) (ty_code ty))
    (put_u32 buf pos (List.length attrs))
    attrs

let write_schema b s = appended schema_size put_schema b s

let read_schema c =
  let n = read_u32 c in
  if n > 10_000 then corrupt "schema arity %d" n;
  let attrs =
    List.init n (fun _ ->
        let name = read_string c in
        let ty = ty_of_code (read_u8 c) in
        (name, ty))
  in
  match Schema.make attrs with
  | s -> s
  | exception Invalid_argument m -> corrupt "bad schema: %s" m

let relation_header_size ~name schema = string_size name + schema_size schema + 4

let put_relation_header buf pos ~name schema ~count =
  put_u32 buf (put_schema buf (put_string buf pos name) schema) count

let relation_size r =
  let n = ref (relation_header_size ~name:(Relation.name r) (Relation.schema r)) in
  Relation.iter r (fun tu -> Array.iter (fun v -> n := !n + value_size v) tu);
  !n

let put_relation buf pos r =
  let pos =
    ref
      (put_relation_header buf pos ~name:(Relation.name r) (Relation.schema r)
         ~count:(Relation.cardinality r))
  in
  Relation.iter r (fun tu -> Array.iter (fun v -> pos := put_value buf !pos v) tu);
  !pos

let write_relation b r = appended relation_size put_relation b r

let read_relation c =
  let name = read_string c in
  let schema = read_schema c in
  let count = read_u32 c in
  let arity = Schema.arity schema in
  (* Each value costs at least one tag byte, so a frame of [remaining]
     bytes cannot hold more than that many values — reject inflated
     counts before allocating. *)
  if count * (max arity 1) > remaining c then corrupt "relation count %d" count;
  let tuples =
    List.init count (fun _ -> Array.init arity (fun _ -> read_value c))
  in
  let check_tuple tu =
    List.iteri
      (fun i (attr, ty) ->
        match Value.type_of tu.(i) with
        | None -> ()
        | Some got ->
            if got <> ty then
              corrupt "attribute %s: value is %s, schema says %s" attr
                (Value.ty_to_string got) (Value.ty_to_string ty))
      (Schema.attrs schema)
  in
  List.iter check_tuple tuples;
  match Relation.make ~name schema tuples with
  | r -> r
  | exception Invalid_argument m -> corrupt "bad relation: %s" m

(* {1 Plans} *)

type plan =
  | Scan of string
  | Select_equals of string * Value.t * plan
  | Select_between of string * Value.t * Value.t * plan
  | Project of string list * plan
  | Project_all of string list * plan
  | Rename of (string * string) list * plan
  | Sort of string list * plan
  | Natural_join of plan * plan
  | Spatial_join of { zl : string; zr : string; left : plan; right : plan }
  | Product of plan * plan
  | Union of plan * plan

let max_plan_depth = 64

exception Unknown_relation of string

let to_plan ~resolve plan =
  let rec go = function
    | Scan name -> (
        match resolve name with
        | Some p -> p
        | None -> raise (Unknown_relation name))
    | Select_equals (attr, v, p) -> Plan.Select (Plan.attr_equals attr v, go p)
    | Select_between (attr, lo, hi, p) ->
        Plan.Select (Plan.attr_between attr lo hi, go p)
    | Project (names, p) -> Plan.Project (names, go p)
    | Project_all (names, p) -> Plan.Project_all (names, go p)
    | Rename (renames, p) -> Plan.Rename (renames, go p)
    | Sort (keys, p) -> Plan.Sort (keys, go p)
    | Natural_join (a, b) -> Plan.Natural_join (go a, go b)
    | Spatial_join { zl; zr; left; right } ->
        Plan.Spatial_join { zl; zr; left = go left; right = go right }
    | Product (a, b) -> Plan.Product (go a, go b)
    | Union (a, b) -> Plan.Union (go a, go b)
  in
  go plan

let write_string_list b l =
  write_u32 b (List.length l);
  List.iter (write_string b) l

let read_string_list c =
  let n = read_u32 c in
  if n > remaining c then corrupt "string list length %d" n;
  List.init n (fun _ -> read_string c)

let rec write_plan b = function
  | Scan name ->
      write_u8 b 1;
      write_string b name
  | Select_equals (attr, v, p) ->
      write_u8 b 2;
      write_string b attr;
      write_value b v;
      write_plan b p
  | Select_between (attr, lo, hi, p) ->
      write_u8 b 3;
      write_string b attr;
      write_value b lo;
      write_value b hi;
      write_plan b p
  | Project (names, p) ->
      write_u8 b 4;
      write_string_list b names;
      write_plan b p
  | Project_all (names, p) ->
      write_u8 b 5;
      write_string_list b names;
      write_plan b p
  | Rename (renames, p) ->
      write_u8 b 6;
      write_u32 b (List.length renames);
      List.iter
        (fun (o, n) ->
          write_string b o;
          write_string b n)
        renames;
      write_plan b p
  | Sort (keys, p) ->
      write_u8 b 7;
      write_string_list b keys;
      write_plan b p
  | Natural_join (a, b') ->
      write_u8 b 8;
      write_plan b a;
      write_plan b b'
  | Spatial_join { zl; zr; left; right } ->
      write_u8 b 9;
      write_string b zl;
      write_string b zr;
      write_plan b left;
      write_plan b right
  | Product (a, b') ->
      write_u8 b 10;
      write_plan b a;
      write_plan b b'
  | Union (a, b') ->
      write_u8 b 11;
      write_plan b a;
      write_plan b b'

let read_plan c =
  let rec go depth =
    if depth > max_plan_depth then corrupt "plan deeper than %d" max_plan_depth;
    match read_u8 c with
    | 1 -> Scan (read_string c)
    | 2 ->
        let attr = read_string c in
        let v = read_value c in
        Select_equals (attr, v, go (depth + 1))
    | 3 ->
        let attr = read_string c in
        let lo = read_value c in
        let hi = read_value c in
        Select_between (attr, lo, hi, go (depth + 1))
    | 4 ->
        let names = read_string_list c in
        Project (names, go (depth + 1))
    | 5 ->
        let names = read_string_list c in
        Project_all (names, go (depth + 1))
    | 6 ->
        let n = read_u32 c in
        if n > remaining c then corrupt "rename list length %d" n;
        let renames =
          List.init n (fun _ ->
              let o = read_string c in
              let n = read_string c in
              (o, n))
        in
        Rename (renames, go (depth + 1))
    | 7 ->
        let keys = read_string_list c in
        Sort (keys, go (depth + 1))
    | 8 ->
        let a = go (depth + 1) in
        let b = go (depth + 1) in
        Natural_join (a, b)
    | 9 ->
        let zl = read_string c in
        let zr = read_string c in
        let left = go (depth + 1) in
        let right = go (depth + 1) in
        Spatial_join { zl; zr; left; right }
    | 10 ->
        let a = go (depth + 1) in
        let b = go (depth + 1) in
        Product (a, b)
    | 11 ->
        let a = go (depth + 1) in
        let b = go (depth + 1) in
        Union (a, b)
    | t -> corrupt "unknown plan tag %d" t
  in
  go 0

(* {1 Convenience} *)

let encode writer v =
  let b = Buffer.create 256 in
  writer b v;
  Buffer.contents b

let decode reader s =
  let c = cursor s in
  match reader c with
  | v -> if at_end c then Ok v else Error "trailing bytes"
  | exception Corrupt m -> Error m
