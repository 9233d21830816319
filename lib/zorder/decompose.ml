type classification = Inside | Outside | Crosses

type classifier = Element.t -> classification

type options = { max_level : int option; max_elements : int option }

let default_options = { max_level = None; max_elements = None }

let effective_max_level space options =
  let pixels = Space.total_bits space in
  match options.max_level with
  | None -> pixels
  | Some l -> min l pixels

let run_impl ~options space classify =
  let max_level = effective_max_level space options in
  let emitted = ref 0 in
  let over_budget () =
    match options.max_elements with
    | None -> false
    | Some b -> !emitted >= b
  in
  (* Accumulate in reverse z order, low child first, then reverse. *)
  let rec go e acc =
    match classify e with
    | Outside -> acc
    | Inside ->
        incr emitted;
        e :: acc
    | Crosses ->
        if Element.level e >= max_level || over_budget () then begin
          incr emitted;
          e :: acc
        end
        else
          let lo, hi = Element.children e in
          go hi (go lo acc)
  in
  List.rev (go Element.root [])

(* With global tracing on, record the [decompose] span and metrics
   around one decomposition; [count] reads its element count off the
   result. *)
let traced decompose count =
  if not (Sqp_obs.Trace.global_enabled ()) then decompose ()
  else begin
    let tracer = Sqp_obs.Trace.global () in
    Sqp_obs.Trace.span_begin tracer "decompose";
    let result = decompose () in
    let n = count result in
    Sqp_obs.Trace.span_end
      ~attrs:(fun () -> [ ("elements", Sqp_obs.Trace.Int n) ])
      tracer;
    let m = Sqp_obs.Metrics.global () in
    Sqp_obs.Metrics.incr (Sqp_obs.Metrics.counter m "decompose.objects");
    Sqp_obs.Metrics.add (Sqp_obs.Metrics.counter m "decompose.elements") n;
    Sqp_obs.Metrics.observe
      (Sqp_obs.Metrics.histogram m "decompose.elements_per_object")
      n;
    result
  end

let run ?(options = default_options) space classify =
  traced (fun () -> run_impl ~options space classify) List.length

let count ?(options = default_options) space classify =
  let max_level = effective_max_level space options in
  let n = ref 0 in
  let over_budget () =
    match options.max_elements with None -> false | Some b -> !n >= b
  in
  let rec go e =
    match classify e with
    | Outside -> ()
    | Inside -> incr n
    | Crosses ->
        if Element.level e >= max_level || over_budget () then incr n
        else begin
          let lo, hi = Element.children e in
          go lo;
          go hi
        end
  in
  go Element.root;
  !n

let to_seq ?(options = default_options) space classify =
  let max_level = effective_max_level space options in
  (* Explicit stack of elements still to process, top = next in z order. *)
  let rec step stack () =
    match stack with
    | [] -> Seq.Nil
    | e :: rest -> (
        match classify e with
        | Outside -> step rest ()
        | Inside -> Seq.Cons (e, step rest)
        | Crosses ->
            if Element.level e >= max_level then Seq.Cons (e, step rest)
            else
              let lo, hi = Element.children e in
              step (lo :: hi :: rest) ())
  in
  step [ Element.root ]

let seq_from space classify zmin =
  let total = Space.total_bits space in
  let max_level = total in
  (* Skip elements whose whole z range lies before [zmin]: element e is
     skippable iff zhi e < zmin, i.e. e padded with 1s is < zmin. *)
  let wholly_before e = Bitstring.compare (Bitstring.pad_to e total true) zmin < 0 in
  let rec step stack () =
    match stack with
    | [] -> Seq.Nil
    | e :: rest ->
        if wholly_before e then step rest ()
        else (
          match classify e with
          | Outside -> step rest ()
          | Inside -> Seq.Cons (e, step rest)
          | Crosses ->
              if Element.level e >= max_level then Seq.Cons (e, step rest)
              else
                let lo, hi = Element.children e in
                step (lo :: hi :: rest) ())
  in
  step [ Element.root ]

let check_box space ~lo ~hi =
  let k = Space.dims space in
  if Array.length lo <> k || Array.length hi <> k then
    invalid_arg "Decompose.box_classifier: wrong arity";
  for i = 0 to k - 1 do
    if lo.(i) > hi.(i) then invalid_arg "Decompose.box_classifier: lo > hi";
    if not (Space.valid_coord space lo.(i) && Space.valid_coord space hi.(i)) then
      invalid_arg "Decompose.box_classifier: bounds out of grid"
  done

let box_classifier space ~lo ~hi =
  check_box space ~lo ~hi;
  let k = Space.dims space in
  fun e ->
    let elo, ehi = Element.box space e in
    let rec check i inside =
      if i = k then if inside then Inside else Crosses
      else if ehi.(i) < lo.(i) || elo.(i) > hi.(i) then Outside
      else
        let contained = lo.(i) <= elo.(i) && ehi.(i) <= hi.(i) in
        check (i + 1) (inside && contained)
    in
    check 0 true

(* [run] with [box_classifier], without building an element to classify
   it, as a fold: [f acc z level] sees each element in z order, its
   [level] bits right-aligned in the int [z].  The recursion carries the
   current element's per-axis bounds in [elo]/[ehi], updated in place
   along the split axis, and [crossing], the number of axes on which the
   element is not inside the box.  A split changes only the split axis,
   so a child is [Outside] iff it misses the box on that axis, and
   [Inside] once [crossing] reaches 0; a child appends one bit to [z]. *)
let fold_box ~options space ~lo ~hi f init =
  let k = Space.dims space in
  let max_level = effective_max_level space options in
  let budget = Option.value options.max_elements ~default:max_int in
  let last = Space.side space - 1 in
  let elo = Array.make k 0 and ehi = Array.make k last in
  let root_crossing = ref 0 in
  for i = 0 to k - 1 do
    if lo.(i) > 0 || hi.(i) < last then incr root_crossing
  done;
  let emitted = ref 0 in
  let rec go z level crossing acc =
    if crossing = 0 || level >= max_level || !emitted >= budget then begin
      incr emitted;
      f acc z level
    end
    else begin
      let a = level mod k in
      let l = elo.(a) and h = ehi.(a) in
      let mid = l + ((h - l + 1) / 2) in
      let acc = child (z lsl 1) level crossing a ~clo:l ~chi:(mid - 1) acc in
      child ((z lsl 1) lor 1) level crossing a ~clo:mid ~chi:h acc
    end
  and child z level crossing a ~clo ~chi acc =
    if chi < lo.(a) || clo > hi.(a) then acc
    else begin
      let l = elo.(a) and h = ehi.(a) in
      let crossing =
        if lo.(a) <= clo && chi <= hi.(a) && not (lo.(a) <= l && h <= hi.(a)) then
          crossing - 1
        else crossing
      in
      elo.(a) <- clo;
      ehi.(a) <- chi;
      let acc = go z (level + 1) crossing acc in
      elo.(a) <- l;
      ehi.(a) <- h;
      acc
    end
  in
  go 0 0 !root_crossing init

let decompose_box ?(options = default_options) space ~lo ~hi =
  check_box space ~lo ~hi;
  traced
    (fun () ->
      (* Accumulated in reverse z order, then reversed. *)
      List.rev
        (fold_box ~options space ~lo ~hi
           (fun acc z level -> Bitstring.of_int z ~width:level :: acc)
           []))
    List.length

(* The number of elements of the exact decomposition ([fold_box] with
   [default_options]), without visiting them.  Below an element that
   crosses the box on one axis [c] only, every other axis is inside: a
   split on one of them gives two children with the same count, and a
   split on [c] leaves at most one crossing child on each side of the
   box, so [along] counts such an element in O(depth).  Only the
   elements crossing on two or more axes, those holding a corner of the
   box, are split as [fold_box] splits them. *)
let box_count space ~lo ~hi =
  let k = Space.dims space and total = Space.total_bits space in
  let last = Space.side space - 1 in
  let elo = Array.make k 0 and ehi = Array.make k last in
  let inside a l h = lo.(a) <= l && h <= hi.(a) in
  let rec along c level l h =
    if level mod k <> c then 2 * along c (level + 1) l h
    else
      let mid = l + ((h - l + 1) / 2) in
      half c (level + 1) l (mid - 1) + half c (level + 1) mid h
  and half c level l h =
    if h < lo.(c) || l > hi.(c) then 0 else if inside c l h then 1 else along c level l h
  in
  let rec go level crossing =
    if crossing = 0 || level >= total then 1
    else if crossing = 1 then begin
      let c = ref 0 in
      while inside !c elo.(!c) ehi.(!c) do
        incr c
      done;
      along !c level elo.(!c) ehi.(!c)
    end
    else
      let a = level mod k in
      let l = elo.(a) and h = ehi.(a) in
      let mid = l + ((h - l + 1) / 2) in
      child level crossing a l (mid - 1) + child level crossing a mid h
  and child level crossing a clo chi =
    if chi < lo.(a) || clo > hi.(a) then 0
    else begin
      let l = elo.(a) and h = ehi.(a) in
      let crossing =
        if inside a clo chi && not (inside a l h) then crossing - 1 else crossing
      in
      elo.(a) <- clo;
      ehi.(a) <- chi;
      let n = go (level + 1) crossing in
      elo.(a) <- l;
      ehi.(a) <- h;
      n
    end
  in
  let crossing = ref 0 in
  for i = 0 to k - 1 do
    if not (inside i 0 last) then incr crossing
  done;
  go 0 !crossing

(* Counted, then filled: the two arrays are the only allocation that
   outlives the call, each allocated once at its exact length. *)
let key_ranges space ~lo ~hi =
  check_box space ~lo ~hi;
  let total = Space.total_bits space in
  traced
    (fun () ->
      let n = box_count space ~lo ~hi in
      let klo = Array.make n 0 and khi = Array.make n 0 in
      ignore
        (fold_box ~options:default_options space ~lo ~hi
           (fun j z level ->
             klo.(j) <- Zkernel.prefix_lo_key ~level z;
             khi.(j) <- Zkernel.prefix_hi_key ~total ~level z;
             j + 1)
           0);
      { Zkernel.klo; khi })
    (fun r -> Array.length r.Zkernel.klo)

let reset_cache () = ()

let is_exact_cover space classify elements =
  let total = Space.total_bits space in
  if total > 24 then invalid_arg "Decompose.is_exact_cover: space too large";
  (* z order + disjointness *)
  let rec ordered = function
    | [] | [ _ ] -> true
    | a :: (b :: _ as rest) -> Element.precedes a b && ordered rest
  in
  ordered elements
  &&
  let n = 1 lsl total in
  let covered r =
    let z = Bitstring.of_int r ~width:total in
    List.exists (fun e -> Bitstring.is_prefix e z) elements
  in
  let rec check r =
    if r = n then true
    else
      let z = Bitstring.of_int r ~width:total in
      let ok =
        match classify z with
        | Inside -> covered r
        | Outside -> not (covered r)
        | Crosses -> true (* boundary pixel: either way is acceptable *)
      in
      ok && check (r + 1)
  in
  check 0
