(* Int-key kernels mirroring the list-based reference sweeps.  Control
   flow — and therefore counter semantics — is kept in lockstep with the
   bitstring implementations these accelerate; see the .mli notes and the
   differential suites in test/test_zseq.ml and test/test_differential.ml.

   A z value of at most 63 bits is word-encoded as [w0 lxor min_int],
   where [w0] is its first word ({!Zpacked.first_word}) — flipping the
   sign bit turns unsigned word order into signed order — so the loops
   run over plain [int array]s where a z comparison is one machine
   comparison and a prefix test is one masked xor.  Longer values never
   reach this module: callers run their bitstring reference instead. *)

module P = Zpacked

let word_key b = P.first_word b lxor min_int

let point_key space p = Interleave.word space p lxor min_int

(* Top-[n] bits of a 63-bit word (0 <= n <= 63); [lsl] by 63 is
   unspecified, hence the guard.  Mirrors Zpacked's private helper. *)
let mask_first n = if n = 0 then 0 else -1 lsl (P.word_bits - n)

let element_keys ~total e =
  let len = Bitstring.length e in
  if total > P.word_bits || len > total then invalid_arg "Zkernel.element_keys";
  (* Scan range of the element: zero-padding leaves the word unchanged,
     one-padding sets the bits between len and total. *)
  let w0 = P.first_word e in
  (w0 lxor min_int, (w0 lor (mask_first total lxor mask_first len)) lxor min_int)

(* {1 Sorting} *)

let bits_for v =
  let b = ref 1 in
  while v lsr !b <> 0 do
    incr b
  done;
  !b

(* In-place quicksort of an int array with inlined comparisons (median-of-
   three pivot, insertion sort below 16).  Used on encoded keys, which are
   pairwise distinct — the index field breaks all ties — so equal-pivot
   pathologies cannot arise. *)
let sort_ints ~comparisons a =
  let insertion lo hi =
    for i = lo + 1 to hi do
      let v = a.(i) in
      let j = ref (i - 1) in
      while
        !j >= lo
        && (incr comparisons;
            a.(!j) > v)
      do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- v
    done
  in
  let swap i j =
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  in
  let rec qsort lo hi =
    if hi - lo < 16 then insertion lo hi
    else begin
      let mid = (lo + hi) / 2 in
      if a.(mid) < a.(lo) then swap mid lo;
      if a.(hi) < a.(mid) then begin
        swap hi mid;
        if a.(mid) < a.(lo) then swap mid lo
      end;
      let pivot = a.(mid) in
      let i = ref lo and j = ref hi in
      while !i <= !j do
        while
          (incr comparisons;
           a.(!i) < pivot)
        do
          incr i
        done;
        while
          (incr comparisons;
           a.(!j) > pivot)
        do
          decr j
        done;
        if !i <= !j then begin
          swap !i !j;
          incr i;
          decr j
        end
      done;
      qsort lo !j;
      qsort !i hi
    end
  in
  let n = Array.length a in
  if n > 1 then qsort 0 (n - 1)

(* LSD radix sort (8-bit digits) of non-negative encoded keys: no
   comparisons at all, ~nbits/8 counting passes.  Stable, though the
   encodings are pairwise distinct anyway. *)
let radix_sort a ~nbits =
  let n = Array.length a in
  let tmp = Array.make n 0 in
  let count = Array.make 256 0 in
  let src = ref a and dst = ref tmp in
  let shift = ref 0 in
  while !shift < nbits do
    Array.fill count 0 256 0;
    let s = !src and t = !dst and sh = !shift in
    for i = 0 to n - 1 do
      let d = (s.(i) lsr sh) land 255 in
      count.(d) <- count.(d) + 1
    done;
    let acc = ref 0 in
    for d = 0 to 255 do
      let c = count.(d) in
      count.(d) <- !acc;
      acc := !acc + c
    done;
    for i = 0 to n - 1 do
      let v = s.(i) in
      let d = (v lsr sh) land 255 in
      t.(count.(d)) <- v;
      count.(d) <- count.(d) + 1
    done;
    src := t;
    dst := s;
    shift := sh + 8
  done;
  if !src != a then Array.blit !src 0 a 0 n

(* Stable mergesort of the permutation [a] by [(ks, ls)], all comparisons
   inlined int-array reads — no closure per probe, which is most of the
   win over [Array.stable_sort] on boxed values. *)
let sort_perm_narrow ~comparisons ks ls n =
  let a = Array.init n (fun i -> i) in
  let tmp = Array.make n 0 in
  let rec sort lo hi =
    if hi - lo > 1 then begin
      let mid = (lo + hi) / 2 in
      sort lo mid;
      sort mid hi;
      let i = ref lo and j = ref mid and k = ref lo in
      while !i < mid && !j < hi do
        let ai = a.(!i) and aj = a.(!j) in
        incr comparisons;
        let left =
          (* <= : ties take the left run, which keeps the sort stable *)
          let ka = ks.(ai) and kb = ks.(aj) in
          ka < kb || (ka = kb && ls.(ai) <= ls.(aj))
        in
        if left then begin
          tmp.(!k) <- ai;
          incr i
        end
        else begin
          tmp.(!k) <- aj;
          incr j
        end;
        incr k
      done;
      while !i < mid do
        tmp.(!k) <- a.(!i);
        incr i;
        incr k
      done;
      while !j < hi do
        tmp.(!k) <- a.(!j);
        incr j;
        incr k
      done;
      Array.blit tmp lo a lo (hi - lo)
    end
  in
  sort 0 n;
  a

(* The sweep's working form of an all-narrow batch, already z-sorted:
   word key, length and prefix mask of each value in flat int arrays. *)
type keyed = { kks : int array; kls : int array; kms : int array }

(* Longest length of the batch, or -1 if some value is not narrow. *)
let narrow_maxlen z n =
  let rec go i m =
    if i = n then m
    else
      let l = Bitstring.length (z i) in
      if l > P.word_bits then -1 else go (i + 1) (if l > m then l else m)
  in
  go 0 0

let sort_keyed ~comparisons z n =
  let maxlen = narrow_maxlen z n in
  if maxlen < 0 then None
  else if n = 0 then Some ([||], { kks = [||]; kls = [||]; kms = [||] })
  else begin
    let len i = Bitstring.length (z i) and word i = P.first_word (z i) in
    let ib = bits_for (n - 1) in
    if maxlen + 6 + ib <= 62 then begin
      (* Single-word encoding of (z value, length, input index): value
         bits zero-padded to the longest length in the batch, then a 6-bit
         length, then the index.  Field-by-field order of the encoding =
         padded-word order, length on ties, input order last — exactly z
         order made stable — so sorting the encoded ints IS the stable z
         sort.  Large batches go through the radix sort and perform
         {e zero} comparisons (the counter stays honest: nothing was
         compared). *)
      let shift = P.word_bits - maxlen in
      let enc =
        Array.init n (fun i ->
            ((word i lsr shift) lsl (6 + ib)) lor (len i lsl ib) lor i)
      in
      if n < 64 then sort_ints ~comparisons enc
      else radix_sort enc ~nbits:(maxlen + 6 + ib);
      (* Decode keys, lengths and masks from the sorted encodings in one
         pass, leaving the permutation in [enc] itself. *)
      let imask = (1 lsl ib) - 1 in
      let kks = Array.make n 0 and kls = Array.make n 0 and kms = Array.make n 0 in
      for r = 0 to n - 1 do
        let e = enc.(r) in
        let l = (e lsr ib) land 63 in
        kls.(r) <- l;
        kms.(r) <- mask_first l;
        kks.(r) <- ((e lsr (6 + ib)) lsl shift) lxor min_int;
        enc.(r) <- e land imask
      done;
      Some (enc, { kks; kls; kms })
    end
    else begin
      (* Word keys break all but exact-prefix ties; lengths settle those. *)
      let ks = Array.init n (fun i -> word i lxor min_int)
      and ls = Array.init n len in
      let perm = sort_perm_narrow ~comparisons ks ls n in
      Some
        ( perm,
          {
            kks = Array.map (fun i -> ks.(i)) perm;
            kls = Array.map (fun i -> ls.(i)) perm;
            kms = Array.map (fun i -> mask_first ls.(i)) perm;
          } )
    end
  end

(* {1 Containment sweep} *)

type sweep_stats = { pairs : int; max_stack : int }

(* The containment sweep over two sorted keyed sides, one open-element
   stack per side.  Every z is (key, len, prefix mask) in three flat int
   arrays: the merge head is one word comparison (plus a length
   comparison on exact-word ties) and a stack pop test is one masked
   xor; like the list version, the surviving top entry also costs one
   test. *)
let sweep_pairs_keyed ~comparisons l r emit =
  let kl = l.kks and ll = l.kls and ml = l.kms in
  let kr = r.kks and lr = r.kls and mr = r.kms in
  let nl = Array.length kl and nr = Array.length kr in
  let stack_l = Array.make (max 1 nl) 0 and stack_r = Array.make (max 1 nr) 0 in
  let dl = ref 0 and dr = ref 0 in
  let pairs = ref 0 and max_stack = ref 0 in
  let pop_closed ks ls ms stack depth kz lz =
    while
      !depth > 0
      && (incr comparisons;
          let s = stack.(!depth - 1) in
          not (ls.(s) <= lz && (ks.(s) lxor kz) land ms.(s) = 0))
    do
      decr depth
    done
  in
  let note_depth () =
    let d = !dl + !dr in
    if d > !max_stack then max_stack := d
  in
  let arrive_left li =
    let kz = kl.(li) and lz = ll.(li) in
    pop_closed kl ll ml stack_l dl kz lz;
    pop_closed kr lr mr stack_r dr kz lz;
    for s = !dr - 1 downto 0 do
      incr pairs;
      emit li stack_r.(s)
    done;
    stack_l.(!dl) <- li;
    incr dl;
    note_depth ()
  in
  let arrive_right ri =
    let kz = kr.(ri) and lz = lr.(ri) in
    pop_closed kl ll ml stack_l dl kz lz;
    pop_closed kr lr mr stack_r dr kz lz;
    for s = !dl - 1 downto 0 do
      incr pairs;
      emit stack_l.(s) ri
    done;
    stack_r.(!dr) <- ri;
    incr dr;
    note_depth ()
  in
  let i = ref 0 and j = ref 0 in
  while !i < nl && !j < nr do
    incr comparisons;
    if
      (* compare <= 0, decomposed: key order first, length on key ties *)
      kl.(!i) < kr.(!j) || (kl.(!i) = kr.(!j) && ll.(!i) <= lr.(!j))
    then begin
      arrive_left !i;
      incr i
    end
    else begin
      arrive_right !j;
      incr j
    end
  done;
  while !i < nl do
    arrive_left !i;
    incr i
  done;
  while !j < nr do
    arrive_right !j;
    incr j
  done;
  { pairs = !pairs; max_stack = !max_stack }

let pairs ~comparisons zl nl zr nr emit =
  match sort_keyed ~comparisons zl nl with
  | None -> None
  | Some (perm_l, kl) -> (
      match sort_keyed ~comparisons zr nr with
      | None -> None
      | Some (perm_r, kr) ->
          Some
            (sweep_pairs_keyed ~comparisons kl kr (fun li ri ->
                 emit perm_l.(li) perm_r.(ri))))

(* {1 Range merges} *)

type range_counters = {
  point_steps : int;
  element_steps : int;
  point_jumps : int;
  element_jumps : int;
  comparisons : int;
}

(* Point z values all share one narrow length and range bounds are padded
   to that same length, so every comparison in the merge is between
   equal-length narrow values: word order alone decides. *)
type key_ranges = { klo : int array; khi : int array }

let ranges_of_elements ~total els =
  let n = List.length els in
  let klo = Array.make n 0 and khi = Array.make n 0 in
  List.iteri
    (fun j e ->
      let lo_k, hi_k = element_keys ~total e in
      klo.(j) <- lo_k;
      khi.(j) <- hi_k)
    els;
  { klo; khi }

let range_plain_keys ks { klo; khi } emit =
  let np = Array.length ks and nb = Array.length klo in
  let point_steps = ref 0 and element_steps = ref 0 and comparisons = ref 0 in
  let i = ref 0 and j = ref 0 in
  while !i < np && !j < nb do
    let k = ks.(!i) in
    incr comparisons;
    if k < klo.(!j) then begin
      incr i;
      incr point_steps
    end
    else begin
      incr comparisons;
      if k > khi.(!j) then begin
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

let lower_bound_key ~comparisons ks ~lo ~hi k =
  let lo = ref lo and hi = ref hi in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    incr comparisons;
    if ks.(mid) < k then lo := mid + 1 else hi := mid
  done;
  !lo

let first_live_key ~comparisons khi k =
  let lo = ref 0 and hi = ref (Array.length khi) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    incr comparisons;
    if khi.(mid) < k then lo := mid + 1 else hi := mid
  done;
  !lo

let range_skip_keys ks { klo; khi } emit =
  let np = Array.length ks and nb = Array.length klo in
  let point_steps = ref 0 and element_steps = ref 0 in
  let point_jumps = ref 0 and element_jumps = ref 0 in
  let comparisons = ref 0 in
  let i = ref 0 and j = ref 0 in
  if np > 0 && nb > 0 then begin
    i := lower_bound_key ~comparisons ks ~lo:0 ~hi:np klo.(0);
    incr point_jumps
  end;
  while !i < np && !j < nb do
    let k = ks.(!i) in
    incr comparisons;
    if k < klo.(!j) then begin
      i := lower_bound_key ~comparisons ks ~lo:!i ~hi:np klo.(!j);
      incr point_jumps
    end
    else begin
      incr comparisons;
      if k > khi.(!j) then begin
        j := first_live_key ~comparisons khi k;
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
