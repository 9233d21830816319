module Z = Sqp_zorder

type space = Z.Space.t

type 'a prepared = {
  space : space;
  zs : Z.Bitstring.t array;            (* sorted *)
  pts : (Sqp_geom.Point.t * 'a) array; (* aligned with zs *)
  keys : int array;                    (* zs as int keys, for the kernels *)
}

let prepare space points =
  let tagged =
    Array.map (fun (p, v) -> (Z.Interleave.shuffle space p, (p, v))) points
  in
  Array.sort (fun (a, _) (b, _) -> Z.Bitstring.compare a b) tagged;
  let zs = Array.map fst tagged in
  { space; zs; pts = Array.map snd tagged; keys = Array.map Z.Zkernel.word_key zs }

let prepared_length p = Array.length p.zs

type counters = {
  point_steps : int;
  element_steps : int;
  point_jumps : int;
  element_jumps : int;
  comparisons : int;
}

type range = { zlo : Z.Bitstring.t; zhi : Z.Bitstring.t }

let box_ranges prep box =
  let total = Z.Space.total_bits prep.space in
  let lo = Sqp_geom.Box.lo box and hi = Sqp_geom.Box.hi box in
  let els = Z.Decompose.decompose_box prep.space ~lo ~hi in
  Array.of_list
    (List.map
       (fun e ->
         {
           zlo = Z.Bitstring.pad_to e total false;
           zhi = Z.Bitstring.pad_to e total true;
         })
       els)

(* The same scan ranges as int keys, straight from the decomposition's
   int-bounds recursion: two flat int arrays, no element built. *)
let key_ranges prep box =
  Z.Decompose.key_ranges prep.space ~lo:box.Sqp_geom.Box.lo ~hi:box.Sqp_geom.Box.hi

let clip prep box =
  Sqp_geom.Box.clip box ~side:(Z.Space.side prep.space)

(* Observability: one span per search carrying the merge's work counters
   (probes = comparisons, skips = random accesses), plus running totals in
   the ambient metrics registry.  A single branch when tracing is off. *)
let observed name iter prep box f =
  if not (Sqp_obs.Trace.global_enabled ()) then iter prep box f
  else begin
    let tracer = Sqp_obs.Trace.global () in
    Sqp_obs.Trace.span_begin tracer name;
    let rows = ref 0 in
    let c =
      iter prep box (fun i ->
          incr rows;
          f i)
    in
    Sqp_obs.Trace.span_end
      ~attrs:(fun () ->
        Sqp_obs.Trace.
          [
            ("rows", Int !rows);
            ("comparisons", Int c.comparisons);
            ("point_steps", Int c.point_steps);
            ("element_steps", Int c.element_steps);
            ("point_jumps", Int c.point_jumps);
            ("element_jumps", Int c.element_jumps);
          ])
      tracer;
    let m = Sqp_obs.Metrics.global () in
    let bump suffix n =
      Sqp_obs.Metrics.add (Sqp_obs.Metrics.counter m (name ^ "." ^ suffix)) n
    in
    bump "queries" 1;
    bump "rows" !rows;
    bump "comparisons" c.comparisons;
    bump "skips" (c.point_jumps + c.element_jumps);
    c
  end

(* A list search is its iteration plus accumulation. *)
let collect iter prep box =
  let acc = ref [] in
  let c = iter prep box (fun i -> acc := prep.pts.(i) :: !acc) in
  (List.rev !acc, c)

let no_counters =
  { point_steps = 0; element_steps = 0; point_jumps = 0; element_jumps = 0; comparisons = 0 }

let counters_of_kernel (c : Z.Zkernel.range_counters) =
  {
    point_steps = c.Z.Zkernel.point_steps;
    element_steps = c.element_steps;
    point_jumps = c.point_jumps;
    element_jumps = c.element_jumps;
    comparisons = c.comparisons;
  }

let iter_plain_reference_impl prep box emit =
  match clip prep box with
  | None -> no_counters
  | Some box ->
      let ranges = box_ranges prep box in
      let np = Array.length prep.zs and nb = Array.length ranges in
      let point_steps = ref 0 and element_steps = ref 0 and comparisons = ref 0 in
      let i = ref 0 and j = ref 0 in
      while !i < np && !j < nb do
        let z = prep.zs.(!i) and r = ranges.(!j) in
        incr comparisons;
        if Z.Bitstring.compare z r.zlo < 0 then begin
          incr i;
          incr point_steps
        end
        else begin
          incr comparisons;
          if Z.Bitstring.compare z r.zhi > 0 then begin
            incr j;
            incr element_steps
          end
          else begin
            emit !i;
            incr i;
            incr point_steps
          end
        end
      done;
      {
        point_steps = !point_steps;
        element_steps = !element_steps;
        point_jumps = 0;
        element_jumps = 0;
        comparisons = !comparisons;
      }

let search_plain_reference prep box =
  collect (observed "range_search.plain_reference" iter_plain_reference_impl) prep box

(* An iteration on an int-key kernel merge; rows and counters are the
   reference's. *)
let iter_keys merge prep box emit =
  match clip prep box with
  | None -> no_counters
  | Some box -> counters_of_kernel (merge prep.keys (key_ranges prep box) emit)

let iter_plain_impl prep box emit = iter_keys Z.Zkernel.range_plain_keys prep box emit

let search_plain prep box = collect (observed "range_search.plain" iter_plain_impl) prep box

(* First index in [zs[lo, hi)] with zs.(i) >= z (binary search = random
   access). *)
let lower_bound_z ?(lo = 0) ?hi zs z comparisons =
  let lo = ref lo and hi = ref (match hi with Some h -> h | None -> Array.length zs) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    incr comparisons;
    if Z.Bitstring.compare zs.(mid) z < 0 then lo := mid + 1 else hi := mid
  done;
  !lo

(* First index in [ranges] with zhi >= z. *)
let first_live_range ranges z comparisons =
  let lo = ref 0 and hi = ref (Array.length ranges) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    incr comparisons;
    if Z.Bitstring.compare ranges.(mid).zhi z < 0 then lo := mid + 1 else hi := mid
  done;
  !lo

let iter_skip_reference_impl prep box emit =
  match clip prep box with
  | None -> no_counters
  | Some box ->
      let ranges = box_ranges prep box in
      let np = Array.length prep.zs and nb = Array.length ranges in
      let point_steps = ref 0 and element_steps = ref 0 in
      let point_jumps = ref 0 and element_jumps = ref 0 in
      let comparisons = ref 0 in
      let i = ref 0 and j = ref 0 in
      (if np > 0 && nb > 0 then begin
         (* Initial random access: position P at the box's first z value. *)
         i := lower_bound_z prep.zs ranges.(0).zlo comparisons;
         incr point_jumps
       end);
      while !i < np && !j < nb do
        let z = prep.zs.(!i) and r = ranges.(!j) in
        incr comparisons;
        if Z.Bitstring.compare z r.zlo < 0 then begin
          (* Point is before the current element: jump P forward.  The
             target cannot be behind the cursor (zs is sorted), so the
             binary search is bounded below by it. *)
          i := lower_bound_z ~lo:!i prep.zs r.zlo comparisons;
          incr point_jumps
        end
        else begin
          incr comparisons;
          if Z.Bitstring.compare z r.zhi > 0 then begin
            (* Point is past the current element: jump B forward. *)
            j := first_live_range ranges z comparisons;
            incr element_jumps
          end
          else begin
            emit !i;
            incr i;
            incr point_steps
          end
        end
      done;
      {
        point_steps = !point_steps;
        element_steps = !element_steps;
        point_jumps = !point_jumps;
        element_jumps = !element_jumps;
        comparisons = !comparisons;
      }

let search_skip_reference prep box =
  collect (observed "range_search.skip_reference" iter_skip_reference_impl) prep box

let iter_skip_impl prep box emit = iter_keys Z.Zkernel.range_skip_keys prep box emit

let search_skip prep box = collect (observed "range_search.skip" iter_skip_impl) prep box

type trace_step = {
  description : string;
  point_z : string option;
  element_z : string option;
}

let search_trace prep box =
  match clip prep box with
  | None -> ([], [ { description = "query box outside the grid"; point_z = None; element_z = None } ])
  | Some box ->
      let total = Z.Space.total_bits prep.space in
      let lo = Sqp_geom.Box.lo box and hi = Sqp_geom.Box.hi box in
      let els = Array.of_list (Z.Decompose.decompose_box prep.space ~lo ~hi) in
      let ranges =
        Array.map
          (fun e ->
            (e, Z.Bitstring.pad_to e total false, Z.Bitstring.pad_to e total true))
          els
      in
      let np = Array.length prep.zs and nb = Array.length ranges in
      let steps = ref [] and acc = ref [] in
      let note description i j =
        steps :=
          {
            description;
            point_z = (if i < np then Some (Z.Bitstring.to_string prep.zs.(i)) else None);
            element_z =
              (if j < nb then
                 let e, _, _ = ranges.(j) in
                 Some (Z.Bitstring.to_string e)
               else None);
          }
          :: !steps
      in
      let i = ref 0 and j = ref 0 in
      let dummy = ref 0 in
      while !i < np && !j < nb do
        let z = prep.zs.(!i) in
        let e, rlo, rhi = ranges.(!j) in
        if Z.Bitstring.compare z rlo < 0 then begin
          note
            (Printf.sprintf "point z %s before element %s: random access into P"
               (Z.Bitstring.to_string z) (Z.Bitstring.to_string e))
            !i !j;
          i := lower_bound_z prep.zs rlo dummy
        end
        else if Z.Bitstring.compare z rhi > 0 then begin
          note
            (Printf.sprintf "point z %s after element %s: advance B"
               (Z.Bitstring.to_string z) (Z.Bitstring.to_string e))
            !i !j;
          let z' = z in
          let rec bump () =
            if !j < nb then
              let _, _, rhi = ranges.(!j) in
              if Z.Bitstring.compare rhi z' < 0 then begin
                incr j;
                bump ()
              end
          in
          bump ()
        end
        else begin
          let p, _ = prep.pts.(!i) in
          note
            (Printf.sprintf "point z %s inside element %s: report %s"
               (Z.Bitstring.to_string z) (Z.Bitstring.to_string e)
               (Format.asprintf "%a" Sqp_geom.Point.pp p))
            !i !j;
          acc := prep.pts.(!i) :: !acc;
          incr i
        end
      done;
      note "merge exhausted" !i !j;
      (List.rev !acc, List.rev !steps)
