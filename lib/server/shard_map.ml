module Z = Sqp_zorder
module Wire = Sqp_relalg.Wire

type entry = { zlo : int; zhi : int; host : string; port : int }

type t = { epoch : int; entries : entry list }

let make ~epoch entries =
  if epoch < 1 then invalid_arg "Shard_map.make: epoch < 1";
  if entries = [] then invalid_arg "Shard_map.make: no entries";
  (* Contiguity is a correctness requirement, not hygiene: the router
     routes every mutation by exact z ownership, so a gap would leave
     z values no shard owns. *)
  (match entries with
  | e :: _ when e.zlo <> 0 ->
      invalid_arg "Shard_map.make: first entry must start at z = 0"
  | _ -> ());
  let rec check prev = function
    | [] -> ()
    | e :: rest ->
        if e.zlo > e.zhi then invalid_arg "Shard_map.make: entry with zlo > zhi";
        (match prev with
        | Some p when e.zlo <> p.zhi + 1 ->
            invalid_arg
              "Shard_map.make: entries must be contiguous and ascending (gap \
               or overlap between ranges)"
        | _ -> ());
        check (Some e) rest
  in
  check None entries;
  { epoch; entries }

let even_ranges space n =
  if n < 1 then invalid_arg "Shard_map.even_ranges: n < 1";
  if not (Z.Zrange.usable space) then
    invalid_arg "Shard_map.even_ranges: space deeper than 61 total bits";
  let total = 1 lsl Z.Space.total_bits space in
  if n > total then invalid_arg "Shard_map.even_ranges: more shards than cells";
  List.init n (fun i ->
      let lo = i * total / n in
      let hi = if i = n - 1 then total - 1 else ((i + 1) * total / n) - 1 in
      (lo, hi))

let even space endpoints =
  let ranges = even_ranges space (List.length endpoints) in
  make ~epoch:1
    (List.map2 (fun (zlo, zhi) (host, port) -> { zlo; zhi; host; port })
       ranges endpoints)

let owner t z = List.find_opt (fun e -> e.zlo <= z && z <= e.zhi) t.entries

let overlapping t intervals =
  List.filter
    (fun (_, e) -> Z.Zrange.overlaps_interval intervals ~lo:e.zlo ~hi:e.zhi)
    (List.mapi (fun i e -> (i, e)) t.entries)

let to_string t =
  String.concat "\n"
    (Printf.sprintf "shard map epoch %d (%d shards)" t.epoch
       (List.length t.entries)
    :: List.mapi
         (fun i e ->
           Printf.sprintf "  shard %d: z [%d, %d] -> %s:%d" i e.zlo e.zhi
             e.host e.port)
         t.entries)

let write b t =
  Wire.write_u32 b t.epoch;
  Wire.write_u32 b (List.length t.entries);
  List.iter
    (fun e ->
      Wire.write_i64 b e.zlo;
      Wire.write_i64 b e.zhi;
      Wire.write_string b e.host;
      Wire.write_u32 b e.port)
    t.entries

let read c =
  let epoch = Wire.read_u32 c in
  let n = Wire.read_u32 c in
  if n > 4096 then raise (Wire.Corrupt "shard map with more than 4096 entries");
  let entries = ref [] in
  for _ = 1 to n do
    let zlo = Wire.read_i64 c in
    let zhi = Wire.read_i64 c in
    let host = Wire.read_string c in
    let port = Wire.read_u32 c in
    entries := { zlo; zhi; host; port } :: !entries
  done;
  match make ~epoch (List.rev !entries) with
  | t -> t
  | exception Invalid_argument m -> raise (Wire.Corrupt m)

let z_of_point space p =
  if not (Z.Zrange.usable space) then
    invalid_arg "Shard_map.z_of_point: space deeper than 61 total bits";
  Z.Interleave.rank space p
