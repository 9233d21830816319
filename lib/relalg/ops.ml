let select pred r =
  Relation.make ~name:(Relation.name r) (Relation.schema r)
    (List.filter pred (Relation.tuples r))

(* The values of [tu] at [idxs], in that order. *)
let pick idxs tu = Array.of_list (List.map (Array.get tu) idxs)

let project_all names r =
  let schema = Relation.schema r in
  let idxs = List.map (Schema.index schema) names in
  let out_schema = Schema.project schema names in
  Relation.make ~name:(Relation.name r) out_schema
    (List.map (pick idxs) (Relation.tuples r))

(* Tuples hashed under [Value.equal]: [Hashtbl.hash] agrees with it,
   since it maps -0.0 and 0.0 (and every NaN) to one hash and a [Zval]'s
   bitstring is canonical. *)
module Tuple_tbl = Hashtbl.Make (struct
  type t = Value.t array

  let equal a b = Array.length a = Array.length b && Array.for_all2 Value.equal a b
  let hash = Hashtbl.hash
end)

let dedup tuples =
  let seen = Tuple_tbl.create 64 in
  List.filter
    (fun tu ->
      if Tuple_tbl.mem seen tu then false
      else begin
        Tuple_tbl.replace seen tu ();
        true
      end)
    tuples

let distinct r =
  Relation.make ~name:(Relation.name r) (Relation.schema r) (dedup (Relation.tuples r))

let project names r = distinct (project_all names r)

let rename renames r =
  Relation.make ~name:(Relation.name r)
    (Schema.rename (Relation.schema r) renames)
    (Relation.tuples r)

let extend attr ty f r =
  let schema = Schema.concat (Relation.schema r) (Schema.make [ (attr, ty) ]) in
  Relation.make ~name:(Relation.name r) schema
    (List.map (fun tu -> Array.append tu [| f tu |]) (Relation.tuples r))

let product a b =
  let schema = Schema.concat (Relation.schema a) (Relation.schema b) in
  let tuples =
    List.concat_map
      (fun ta -> List.map (fun tb -> Array.append ta tb) (Relation.tuples b))
      (Relation.tuples a)
  in
  Relation.make schema tuples

let union a b =
  if not (Schema.equal (Relation.schema a) (Relation.schema b)) then
    invalid_arg "Ops.union: schema mismatch";
  Relation.make (Relation.schema a) (dedup (Relation.tuples a @ Relation.tuples b))

let compare_on idxs a b =
  let rec go = function
    | [] -> 0
    | i :: rest ->
        let c = Value.compare a.(i) b.(i) in
        if c <> 0 then c else go rest
  in
  go idxs

let sort_by names r =
  let idxs = List.map (Schema.index (Relation.schema r)) names in
  Relation.make ~name:(Relation.name r) (Relation.schema r)
    (List.stable_sort (compare_on idxs) (Relation.tuples r))

let natural_join a b =
  let sa = Relation.schema a and sb = Relation.schema b in
  let common = Schema.common sa sb in
  if common = [] then product a b
  else begin
    let ia = List.map (Schema.index sa) common
    and ib = List.map (Schema.index sb) common in
    (* b's non-common attributes survive. *)
    let b_keep =
      List.filter (fun n -> not (List.mem n common)) (Schema.names sb)
    in
    let ib_keep = List.map (Schema.index sb) b_keep in
    let out_schema =
      Schema.concat sa
        (Schema.make (List.map (fun n -> (n, Schema.ty sb n)) b_keep))
    in
    let table = Tuple_tbl.create 64 in
    List.iter (fun tb -> Tuple_tbl.add table (pick ib tb) tb) (Relation.tuples b);
    let tuples =
      List.concat_map
        (fun ta ->
          List.map
            (fun tb -> Array.append ta (pick ib_keep tb))
            (Tuple_tbl.find_all table (pick ia ta)))
        (Relation.tuples a)
    in
    Relation.make out_schema tuples
  end

type aggregate = Count | Sum of string | Min of string | Max of string

let group_by keys aggs r =
  let schema = Relation.schema r in
  let key_idxs = List.map (Schema.index schema) keys in
  let agg_schema =
    List.map (fun (name, _) -> (name, Value.TInt)) aggs
  in
  List.iter
    (fun (_, agg) ->
      match agg with
      | Count -> ()
      | Sum a | Min a | Max a ->
          if Schema.ty schema a <> Value.TInt then
            invalid_arg "Ops.group_by: aggregate over non-int attribute")
    aggs;
  let out_schema = Schema.concat (Schema.project schema keys) (Schema.make agg_schema) in
  let groups = Tuple_tbl.create 64 in
  let order = ref [] in
  List.iter
    (fun tu ->
      let key = pick key_idxs tu in
      match Tuple_tbl.find_opt groups key with
      | Some rows -> Tuple_tbl.replace groups key (tu :: rows)
      | None ->
          Tuple_tbl.replace groups key [ tu ];
          order := key :: !order)
    (Relation.tuples r);
  let eval rows = function
    | Count -> Value.Int (List.length rows)
    | Sum a ->
        let i = Schema.index schema a in
        Value.Int (List.fold_left (fun acc tu -> acc + Value.to_int tu.(i)) 0 rows)
    | Min a ->
        let i = Schema.index schema a in
        Value.Int
          (List.fold_left (fun acc tu -> min acc (Value.to_int tu.(i))) max_int rows)
    | Max a ->
        let i = Schema.index schema a in
        Value.Int
          (List.fold_left (fun acc tu -> max acc (Value.to_int tu.(i))) min_int rows)
  in
  let tuples =
    List.rev_map
      (fun key ->
        let rows = Tuple_tbl.find groups key in
        Array.append key (Array.of_list (List.map (fun (_, agg) -> eval rows agg) aggs)))
      !order
  in
  Relation.make out_schema tuples

let flatten_sets r ~set_attr expand ty =
  let schema = Relation.schema r in
  let idx = Schema.index schema set_attr in
  let out_schema =
    Schema.make
      (List.map
         (fun (n, t) -> if n = set_attr then (n, ty) else (n, t))
         (Schema.attrs schema))
  in
  let tuples =
    List.concat_map
      (fun tu ->
        List.map
          (fun v ->
            let tu' = Array.copy tu in
            tu'.(idx) <- v;
            tu')
          (expand tu.(idx)))
      (Relation.tuples r)
  in
  Relation.make ~name:(Relation.name r) out_schema tuples
