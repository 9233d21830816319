module B = Sqp_zorder.Bitstring

type stats = {
  pairs : int;
  comparisons : int;
  sorted_items : int;
  max_stack : int;
}

let out_schema r s =
  Schema.concat (Relation.schema r) (Relation.schema s)

(* The z value of a tuple.  The attribute's position is looked up once,
   at the first tuple, so an empty side never needs the attribute. *)
let zval_of schema attr =
  let k = lazy (Schema.index schema attr) in
  fun (tu : Relation.tuple) ->
    match tu.(Lazy.force k) with
    | Value.Zval z -> z
    | _ -> invalid_arg "Spatial_join: z attribute does not hold an element"

(* Observability: one span per join with its work counters, plus running
   totals in the ambient metrics registry.  One branch when tracing is
   off. *)
let observed name join =
  if not (Sqp_obs.Trace.global_enabled ()) then join ()
  else begin
    let tracer = Sqp_obs.Trace.global () in
    Sqp_obs.Trace.span_begin tracer name;
    let ((_, s) as r) = join () in
    Sqp_obs.Trace.span_end
      ~attrs:(fun () ->
        Sqp_obs.Trace.
          [
            ("pairs", Int s.pairs);
            ("comparisons", Int s.comparisons);
            ("sorted_items", Int s.sorted_items);
            ("max_stack", Int s.max_stack);
          ])
      tracer;
    let m = Sqp_obs.Metrics.global () in
    let bump suffix n =
      Sqp_obs.Metrics.add (Sqp_obs.Metrics.counter m (name ^ "." ^ suffix)) n
    in
    bump "joins" 1;
    bump "pairs" s.pairs;
    bump "comparisons" s.comparisons;
    Sqp_obs.Metrics.record_max
      (Sqp_obs.Metrics.gauge m (name ^ ".max_stack"))
      s.max_stack;
    r
  end

let nested_loop_impl r ~zr s ~zs =
  let schema = out_schema r s in
  let zr_at = zval_of (Relation.schema r) zr
  and zs_at = zval_of (Relation.schema s) zs in
  let comparisons = ref 0 in
  let tuples =
    List.concat_map
      (fun tr ->
        let zrv = zr_at tr in
        List.filter_map
          (fun ts ->
            let zsv = zs_at ts in
            incr comparisons;
            if B.is_prefix zrv zsv || B.is_prefix zsv zrv then
              Some (Array.append tr ts)
            else None)
          (Relation.tuples s))
      (Relation.tuples r)
  in
  ( Relation.make schema tuples,
    {
      pairs = List.length tuples;
      comparisons = !comparisons;
      sorted_items = 0;
      max_stack = 0;
    } )

let nested_loop r ~zr s ~zs = observed "spatial_join.nested_loop" (fun () -> nested_loop_impl r ~zr s ~zs)

type side = R | S

let merge_reference_impl r ~zr s ~zs =
  let schema = out_schema r s in
  let zr_at = zval_of (Relation.schema r) zr
  and zs_at = zval_of (Relation.schema s) zs in
  let comparisons = ref 0 in
  let items =
    List.map (fun tu -> (zr_at tu, R, tu)) (Relation.tuples r)
    @ List.map (fun tu -> (zs_at tu, S, tu)) (Relation.tuples s)
  in
  let items =
    List.sort
      (fun (za, _, _) (zb, _, _) ->
        incr comparisons;
        B.compare za zb)
      items
  in
  (* Stacks of open (containing) elements per side; an element stays open
     while the sweep position is within its z range, i.e. while it is a
     prefix of the current item's z value. *)
  let stack_r = ref [] and stack_s = ref [] in
  let max_stack = ref 0 in
  let note_depth () =
    let d = List.length !stack_r + List.length !stack_s in
    if d > !max_stack then max_stack := d
  in
  let pop_closed z stack =
    let rec go = function
      | (ze, _) :: rest when
          (incr comparisons;
           not (B.is_prefix ze z)) ->
          go rest
      | kept -> kept
    in
    stack := go !stack
  in
  let out = ref [] and pairs = ref 0 in
  List.iter
    (fun (z, side, tu) ->
      pop_closed z stack_r;
      pop_closed z stack_s;
      (match side with
      | R ->
          List.iter
            (fun (_, ts) ->
              incr pairs;
              out := Array.append tu ts :: !out)
            !stack_s;
          stack_r := (z, tu) :: !stack_r
      | S ->
          List.iter
            (fun (_, tr) ->
              incr pairs;
              out := Array.append tr tu :: !out)
            !stack_r;
          stack_s := (z, tu) :: !stack_s);
      note_depth ())
    items;
  ( Relation.make schema (List.rev !out),
    {
      pairs = !pairs;
      comparisons = !comparisons;
      sorted_items = List.length items;
      max_stack = !max_stack;
    } )

let merge_reference r ~zr s ~zs =
  observed "spatial_join.merge_reference" (fun () -> merge_reference_impl r ~zr s ~zs)

(* The int-key kernel sorts both sides straight from their tuples'
   bitstrings and sweeps.  Tuple output — content and order — is
   bit-identical to the reference sweep. *)
let merge_impl r ~zr s ~zs =
  let module K = Sqp_zorder.Zkernel in
  let tr = Array.of_list (Relation.tuples r)
  and ts = Array.of_list (Relation.tuples s) in
  let zr_at = zval_of (Relation.schema r) zr
  and zs_at = zval_of (Relation.schema s) zs in
  let comparisons = ref 0 and out = ref [] in
  let st =
    K.pairs ~comparisons
      (fun i -> zr_at tr.(i))
      (Array.length tr)
      (fun i -> zs_at ts.(i))
      (Array.length ts)
      (fun i j -> out := Array.append tr.(i) ts.(j) :: !out)
  in
  ( Relation.make (out_schema r s) (List.rev !out),
    {
      pairs = st.K.pairs;
      comparisons = !comparisons;
      sorted_items = Array.length tr + Array.length ts;
      max_stack = st.K.max_stack;
    } )

let merge r ~zr s ~zs = observed "spatial_join.merge" (fun () -> merge_impl r ~zr s ~zs)
