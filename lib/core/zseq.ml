module Z = Sqp_zorder
module P = Z.Zpacked
module K = Z.Zkernel

type 'a t = { zs : P.t array; ps : 'a array; keyed : K.keyed option }

let of_packed ~comparisons zs ps =
  if Array.length zs <> Array.length ps then
    invalid_arg "Zseq.of_packed: length mismatch";
  let perm, keyed =
    match
      K.sort_keyed ~comparisons
        ~len:(fun i -> zs.(i).P.len)
        ~word:(fun i -> zs.(i).P.w0)
        (Array.length zs)
    with
    | Some (perm, keyed) -> (perm, Some keyed)
    | None -> (K.sort_perm ~comparisons zs, None)
  in
  {
    zs = Array.map (fun k -> zs.(k)) perm;
    ps = Array.map (fun k -> ps.(k)) perm;
    keyed;
  }

let of_list ~comparisons items =
  let zs = Array.of_list (List.map fst items) in
  match P.pack_array zs with
  | None -> None
  | Some packed ->
      let ps = Array.of_list (List.map snd items) in
      Some (of_packed ~comparisons packed ps)

let of_sorted zs ps =
  if Array.length zs <> Array.length ps then
    invalid_arg "Zseq.of_sorted: length mismatch";
  for i = 1 to Array.length zs - 1 do
    if P.compare zs.(i - 1) zs.(i) > 0 then
      invalid_arg "Zseq.of_sorted: not sorted"
  done;
  { zs; ps; keyed = None }

let length t = Array.length t.zs

let z t i = t.zs.(i)
let payload t i = t.ps.(i)

let lower_bound ~comparisons t key =
  K.lower_bound ~comparisons t.zs ~lo:0 ~hi:(Array.length t.zs) key

let pairs ~comparisons l r =
  let out = ref [] in
  let emit li ri = out := (l.ps.(li), r.ps.(ri)) :: !out in
  let stats =
    match (l.keyed, r.keyed) with
    | Some kl, Some kr -> K.sweep_pairs_keyed ~comparisons kl kr emit
    | _ -> K.sweep_pairs ~comparisons l.zs r.zs emit
  in
  (List.rev !out, stats)
