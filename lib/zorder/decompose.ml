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

let run ?(options = default_options) space classify =
  if not (Sqp_obs.Trace.global_enabled ()) then run_impl ~options space classify
  else begin
    let tracer = Sqp_obs.Trace.global () in
    Sqp_obs.Trace.span_begin tracer "decompose";
    let elements = run_impl ~options space classify in
    let n = List.length elements in
    Sqp_obs.Trace.span_end
      ~attrs:(fun () -> [ ("elements", Sqp_obs.Trace.Int n) ])
      tracer;
    let m = Sqp_obs.Metrics.global () in
    Sqp_obs.Metrics.incr (Sqp_obs.Metrics.counter m "decompose.objects");
    Sqp_obs.Metrics.add (Sqp_obs.Metrics.counter m "decompose.elements") n;
    Sqp_obs.Metrics.observe
      (Sqp_obs.Metrics.histogram m "decompose.elements_per_object")
      n;
    elements
  end

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

let box_classifier space ~lo ~hi =
  let k = Space.dims space in
  if Array.length lo <> k || Array.length hi <> k then
    invalid_arg "Decompose.box_classifier: wrong arity";
  for i = 0 to k - 1 do
    if lo.(i) > hi.(i) then invalid_arg "Decompose.box_classifier: lo > hi";
    if not (Space.valid_coord space lo.(i) && Space.valid_coord space hi.(i)) then
      invalid_arg "Decompose.box_classifier: bounds out of grid"
  done;
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

(* Memo cache for box decompositions.  Server sessions and benchmarks
   replay the same query boxes; the decomposition is pure, so a bounded
   LRU keyed on the full input (space, bounds, options) is safe.  A mutex
   serializes access — server sessions call decompose_box concurrently —
   and the decomposition itself is computed outside the lock. *)

type cache_stats = { hits : int; misses : int; evictions : int }

let default_cache_capacity = 512

let cache_lock = Mutex.create ()
let cache = ref (Lru.create ~capacity:default_cache_capacity)
let cache_hits = ref 0
let cache_misses = ref 0
let cache_evictions = ref 0

let reset_cache ?(capacity = default_cache_capacity) () =
  Mutex.protect cache_lock (fun () ->
      cache := Lru.create ~capacity;
      cache_hits := 0;
      cache_misses := 0;
      cache_evictions := 0)

let cache_stats () =
  Mutex.protect cache_lock (fun () ->
      { hits = !cache_hits; misses = !cache_misses; evictions = !cache_evictions })

let bump_cache_metric suffix =
  Sqp_obs.Metrics.incr
    (Sqp_obs.Metrics.counter (Sqp_obs.Metrics.global ()) ("decompose.cache." ^ suffix))

let decompose_box ?options space ~lo ~hi =
  (* Validate eagerly (box_classifier raises on bad bounds) so cache hits
     and misses reject exactly the same inputs. *)
  let classify = box_classifier space ~lo ~hi in
  let opts = match options with Some o -> o | None -> default_options in
  let key =
    ( Space.dims space,
      Space.depth space,
      Array.copy lo,
      Array.copy hi,
      (match opts.max_level with Some l -> l | None -> -1),
      match opts.max_elements with Some b -> b | None -> -1 )
  in
  let cached =
    Mutex.protect cache_lock (fun () ->
        match Lru.find !cache key with
        | Some els ->
            incr cache_hits;
            Some els
        | None ->
            incr cache_misses;
            None)
  in
  match cached with
  | Some els ->
      bump_cache_metric "hits";
      els
  | None ->
      bump_cache_metric "misses";
      let els = run ?options space classify in
      let evicted =
        Mutex.protect cache_lock (fun () ->
            let evicted = Lru.add !cache key els in
            if evicted then incr cache_evictions;
            evicted)
      in
      if evicted then bump_cache_metric "evictions";
      els

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
