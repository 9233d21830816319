module Z = Sqp_zorder

type 'a layer = (Z.Element.t * 'a) list

let check_layer layer =
  let rec go = function
    | [] | [ _ ] -> Ok ()
    | (a, _) :: ((b, _) :: _ as rest) ->
        if not (Z.Element.precedes a b) then
          Error
            (Format.asprintf "layer elements not disjoint/ordered: %a vs %a"
               Z.Element.pp a Z.Element.pp b)
        else go rest
  in
  go layer

type stats = { input_elements : int; output_elements : int; segments : int }

type 'a interval = { lo : int; hi : int; label : 'a }

let to_intervals space layer =
  List.map
    (fun (e, label) ->
      let lo, hi = Z.Zrange.of_element space e in
      { lo; hi; label })
    layer

(* Split two disjoint sorted interval lists at all boundaries of both,
   producing maximal segments with the pair of covering labels. *)
let rec segment a b =
  match (a, b) with
  | [], [] -> []
  | x :: ar, [] -> (x.lo, x.hi, Some x.label, None) :: segment ar []
  | [], y :: br -> (y.lo, y.hi, None, Some y.label) :: segment [] br
  | x :: ar, y :: br ->
      if x.hi < y.lo then (x.lo, x.hi, Some x.label, None) :: segment ar b
      else if y.hi < x.lo then (y.lo, y.hi, None, Some y.label) :: segment a br
      else if x.lo < y.lo then
        (x.lo, y.lo - 1, Some x.label, None) :: segment ({ x with lo = y.lo } :: ar) b
      else if y.lo < x.lo then
        (y.lo, x.lo - 1, None, Some y.label) :: segment a ({ y with lo = x.lo } :: br)
      else begin
        let e = min x.hi y.hi in
        let a' = if x.hi > e then { x with lo = e + 1 } :: ar else ar in
        let b' = if y.hi > e then { y with lo = e + 1 } :: br else br in
        (x.lo, e, Some x.label, Some y.label) :: segment a' b'
      end

let coalesce segments =
  let rec go = function
    | (lo1, hi1, la1, lb1) :: (lo2, hi2, la2, lb2) :: rest
      when hi1 + 1 = lo2 && la1 = la2 && lb1 = lb2 ->
        go ((lo1, hi2, la1, lb1) :: rest)
    | seg :: rest -> seg :: go rest
    | [] -> []
  in
  go segments

let overlay space la lb =
  (match check_layer la with
  | Ok () -> ()
  | Error m -> invalid_arg ("Overlay.overlay: left " ^ m));
  (match check_layer lb with
  | Ok () -> ()
  | Error m -> invalid_arg ("Overlay.overlay: right " ^ m));
  let segments = coalesce (segment (to_intervals space la) (to_intervals space lb)) in
  let out =
    List.concat_map
      (fun (lo, hi, l, r) ->
        List.map (fun e -> (e, (l, r))) (Z.Zrange.cover space ~lo ~hi))
      segments
  in
  ( out,
    {
      input_elements = List.length la + List.length lb;
      output_elements = List.length out;
      segments = List.length segments;
    } )

let relabel keep layer =
  List.filter_map
    (fun (e, labels) -> if keep labels then Some (e, ()) else None)
    layer

(* Boolean ops need re-canonicalization: after filtering, adjacent kept
   regions should merge back into maximal elements. *)
let canonicalize space layer =
  let intervals =
    List.map
      (fun (e, ()) ->
        let lo, hi = Z.Zrange.of_element space e in
        (lo, hi))
      layer
  in
  let rec merge = function
    | (lo1, hi1) :: (lo2, hi2) :: rest when hi1 + 1 = lo2 -> merge ((lo1, hi2) :: rest)
    | x :: rest -> x :: merge rest
    | [] -> []
  in
  List.concat_map
    (fun (lo, hi) -> List.map (fun e -> (e, ())) (Z.Zrange.cover space ~lo ~hi))
    (merge intervals)

let boolean keep space la lb =
  let out, _ = overlay space la lb in
  canonicalize space (relabel keep out)

let union space la lb = boolean (fun _ -> true) space la lb

let inter space la lb =
  boolean (function Some _, Some _ -> true | _ -> false) space la lb

let diff space la lb =
  boolean (function Some _, None -> true | _ -> false) space la lb

let xor space la lb =
  boolean
    (function Some _, None | None, Some _ -> true | _ -> false)
    space la lb

let of_shape ?options space shape label =
  List.map (fun e -> (e, label)) (Sqp_geom.Shape.decompose ?options space shape)

let cells space layer =
  List.fold_left (fun acc (e, _) -> acc +. Z.Element.cells space e) 0.0 layer
