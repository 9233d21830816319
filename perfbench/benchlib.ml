let sorted_copy a =
  let s = Array.copy a in
  Array.sort compare s;
  s

let median a =
  let n = Array.length a in
  if n = 0 then nan
  else
    let s = sorted_copy a in
    if n mod 2 = 1 then s.(n / 2) else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.

let mean a =
  let n = Array.length a in
  if n = 0 then nan else Array.fold_left ( +. ) 0. a /. float_of_int n

type tail = { value : float; pct : float; beyond : int; n : int }

let tail_ladder = [ 99.9; 99.; 95.; 90.; 75.; 50. ]

(* Nearest rank: the smallest rank r with r >= pct/100 * n.  Integer
   arithmetic in tenths of a percent keeps 99.9% of 1000 at exactly rank
   999. *)
let rank pct n =
  let tenths = int_of_float (Float.round (pct *. 10.)) in
  max 1 (((tenths * n) + 999) / 1000)

let tail a =
  let n = Array.length a in
  let s = sorted_copy a in
  List.find_map
    (fun pct ->
      let r = rank pct n in
      let beyond = n - r in
      if n > 0 && beyond >= 10 then Some { value = s.(r - 1); pct; beyond; n }
      else None)
    tail_ladder

let self_time ~parent:(p0, p1) ~children =
  let clipped =
    List.filter_map
      (fun (c0, c1) ->
        let c0 = Float.max c0 p0 and c1 = Float.min c1 p1 in
        if c1 > c0 then Some (c0, c1) else None)
      children
    |> List.sort compare
  in
  let covered, _ =
    List.fold_left
      (fun (acc, reach) (c0, c1) ->
        let c0 = Float.max c0 reach in
        if c1 > c0 then (acc +. (c1 -. c0), c1) else (acc, reach))
      (0., p0) clipped
  in
  p1 -. p0 -. covered

let residual_ms ~rtt_total_ms ~server_total_us ~requests =
  if requests = 0 then nan
  else (rtt_total_ms -. (server_total_us /. 1000.)) /. float_of_int requests

let is_alnum c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')

let valid_metric_name s =
  let n = String.length s in
  n >= 1 && n <= 64
  && is_alnum s.[0]
  && String.for_all (fun c -> is_alnum c || c = '_' || c = '.' || c = '-') s

let valid_unit s =
  let n = String.length s in
  n >= 1 && n <= 16
  && String.for_all
       (fun c -> is_alnum c || c = '_' || c = '/' || c = '%' || c = '.' || c = '-')
       s

type reading = Count of int | Hist of { count : int; sum : int }

let parse_dump text =
  let lines = String.split_on_char '\n' text in
  let rec after_marker = function
    | [] -> []
    | l :: rest ->
        let marker = "final metrics:" in
        let ll = String.length l and lm = String.length marker in
        if ll >= lm && String.sub l (ll - lm) lm = marker then rest
        else after_marker rest
  in
  let field key tok =
    let p = key ^ "=" in
    let lp = String.length p in
    if String.length tok > lp && String.sub tok 0 lp = p then
      int_of_string_opt (String.sub tok lp (String.length tok - lp))
    else None
  in
  List.filter_map
    (fun line ->
      if line = "" || line.[0] = ' ' then None
      else
        match List.filter (( <> ) "") (String.split_on_char ' ' line) with
        | name :: c :: s :: _ when field "count" c <> None -> (
            match (field "count" c, field "sum" s) with
            | Some count, Some sum -> Some (name, Hist { count; sum })
            | _ -> None)
        | name :: v :: _ -> (
            match int_of_string_opt v with
            | Some v -> Some (name, Count v)
            | None -> None)
        | _ -> None)
    (after_marker lines)

let dump_count d name =
  match List.assoc_opt name d with
  | Some (Count v) -> v
  | Some (Hist { count; _ }) -> count
  | None -> 0

let dump_sum d name =
  match List.assoc_opt name d with
  | Some (Count v) -> v
  | Some (Hist { sum; _ }) -> sum
  | None -> 0

type metric = { name : string; value : float; unit_ : string }

let result_json ~correct ~attempted ~failed metrics =
  let seen = Hashtbl.create 64 in
  let field m =
    if not (valid_metric_name m.name) then
      invalid_arg ("result_json: bad metric name " ^ m.name);
    if not (valid_unit m.unit_) then
      invalid_arg ("result_json: bad unit " ^ m.unit_);
    if Hashtbl.mem seen m.name then
      invalid_arg ("result_json: repeated metric " ^ m.name);
    if not (Float.is_finite m.value) then
      invalid_arg ("result_json: non-finite value for " ^ m.name);
    Hashtbl.add seen m.name ();
    Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" m.name m.value m.unit_
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", " (List.map field metrics))
