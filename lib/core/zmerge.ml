module B = Sqp_zorder.Bitstring

type stats = { pairs : int; items : int; comparisons : int }

type ('a, 'b) item = Left of 'a | Right of 'b

(* Observability: one span per merge with its work counters, plus running
   totals in the ambient metrics registry.  One branch when tracing is
   off, so the hot sequential path is unchanged. *)
let observed name merge left right =
  if not (Sqp_obs.Trace.global_enabled ()) then merge left right
  else begin
    let tracer = Sqp_obs.Trace.global () in
    Sqp_obs.Trace.span_begin tracer name;
    let ((_, s) as r) = merge left right in
    Sqp_obs.Trace.span_end
      ~attrs:(fun () ->
        Sqp_obs.Trace.
          [
            ("pairs", Int s.pairs);
            ("items", Int s.items);
            ("comparisons", Int s.comparisons);
          ])
      tracer;
    let m = Sqp_obs.Metrics.global () in
    let bump suffix n =
      Sqp_obs.Metrics.add (Sqp_obs.Metrics.counter m (name ^ "." ^ suffix)) n
    in
    bump "merges" 1;
    bump "pairs" s.pairs;
    bump "items" s.items;
    bump "comparisons" s.comparisons;
    r
  end

(* Reference (oracle) path: list-based bitstring sweep.  Each side is
   stable-sorted separately and the two sorted lists are merged tagged in
   a single pass — equal z values take the left side first, which is
   exactly the order a stable sort of left-then-right would produce. *)
let pairs_reference_impl left right =
  let comparisons = ref 0 in
  let cmp (za, _) (zb, _) =
    incr comparisons;
    B.compare za zb
  in
  let sl = List.sort cmp left and sr = List.sort cmp right in
  let items =
    let rec go l r acc =
      match (l, r) with
      | [], [] -> List.rev acc
      | (z, a) :: tl, [] -> go tl [] ((z, Left a) :: acc)
      | [], (z, b) :: tr -> go [] tr ((z, Right b) :: acc)
      | ((zl, a) :: tl as l'), ((zr, b) :: tr as r') ->
          incr comparisons;
          if B.compare zl zr <= 0 then go tl r' ((zl, Left a) :: acc)
          else go l' tr ((zr, Right b) :: acc)
    in
    go sl sr []
  in
  let stack_l = ref [] and stack_r = ref [] in
  let pop_closed z stack =
    let rec go = function
      | (ze, _) :: rest
        when (incr comparisons;
              not (B.is_prefix ze z)) ->
          go rest
      | kept -> kept
    in
    stack := go !stack
  in
  let out = ref [] and count = ref 0 in
  List.iter
    (fun (z, item) ->
      pop_closed z stack_l;
      pop_closed z stack_r;
      match item with
      | Left a ->
          List.iter
            (fun (_, b) ->
              incr count;
              out := (a, b) :: !out)
            !stack_r;
          stack_l := (z, a) :: !stack_l
      | Right b ->
          List.iter
            (fun (_, a) ->
              incr count;
              out := (a, b) :: !out)
            !stack_l;
          stack_r := (z, b) :: !stack_r)
    items;
  (List.rev !out, { pairs = !count; items = List.length items; comparisons = !comparisons })

let pairs_reference left right =
  observed "zmerge.pairs_reference" pairs_reference_impl left right

(* Fast path: the int-key kernel sorts both sides and sweeps; output
   (content and order) is bit-identical to the reference.  Any z value
   longer than one word sends the whole call to the reference path. *)
let pairs_impl left right =
  let zl = Array.of_list (List.map fst left)
  and zr = Array.of_list (List.map fst right) in
  let pl = Array.of_list (List.map snd left)
  and pr = Array.of_list (List.map snd right) in
  let comparisons = ref 0 and out = ref [] in
  match
    Sqp_zorder.Zkernel.pairs ~comparisons (Array.get zl) (Array.length zl)
      (Array.get zr) (Array.length zr) (fun i j -> out := (pl.(i), pr.(j)) :: !out)
  with
  | Some st ->
      ( List.rev !out,
        {
          pairs = st.Sqp_zorder.Zkernel.pairs;
          items = Array.length zl + Array.length zr;
          comparisons = !comparisons;
        } )
  | None -> pairs_reference_impl left right

let pairs left right = observed "zmerge.pairs" pairs_impl left right

let pairs_naive_impl left right =
  let comparisons = ref 0 in
  let out = ref [] and count = ref 0 in
  List.iter
    (fun (za, a) ->
      List.iter
        (fun (zb, b) ->
          incr comparisons;
          if B.is_prefix za zb || B.is_prefix zb za then begin
            incr count;
            out := (a, b) :: !out
          end)
        right)
    left;
  ( List.rev !out,
    {
      pairs = !count;
      items = List.length left + List.length right;
      comparisons = !comparisons;
    } )

let pairs_naive left right = observed "zmerge.pairs_naive" pairs_naive_impl left right
