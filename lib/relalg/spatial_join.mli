(** The spatial join [R\[zr <> zs\]S] (Section 4).

    Both relations carry an element-valued attribute.  The join emits a
    combined tuple for every pair whose elements are related by
    containment in either direction — which, for decomposed objects,
    means the objects overlap.

    Three implementations:
    - [merge]: sort both inputs into z order and sweep once, keeping a
      stack of currently "open" (containing) elements per side — the
      z-order analogue of sort-merge join.  O(n log n + output).
    - [merge_reference]: the same sweep over bitstring lists; the
      differential oracle for [merge].
    - [nested_loop]: compare all pairs; the correctness oracle. *)

type stats = {
  pairs : int;         (** tuples emitted *)
  comparisons : int;   (** element comparisons performed *)
  sorted_items : int;  (** total items sorted (merge only) *)
  max_stack : int;
      (** deepest combined open-element stack the sweep reached (0 for
          [nested_loop]) *)
}

val merge :
  Relation.t -> zr:string -> Relation.t -> zs:string -> Relation.t * stats
(** Runs on the flat-array kernel: when every z value fits one word
    ({!Sqp_zorder.Zpacked.word_bits}), both sides are sorted straight
    from their bitstrings into flat keys
    ({!Sqp_zorder.Zkernel.sort_keyed}) with no packed copy; otherwise,
    up to [Zpacked.max_bits] bits, over packed records
    ({!Sqp_zorder.Zkernel.sweep_pairs}); beyond that it falls back to
    {!merge_reference}.  All produce the same tuples in the same order
    and the same [pairs], [sorted_items] and [max_stack]; [comparisons]
    counts each path's own sort and sweep.
    @raise Invalid_argument if attribute names of the two relations
    clash (rename first) or the z attributes hold non-[Zval] values. *)

val merge_reference :
  Relation.t -> zr:string -> Relation.t -> zs:string -> Relation.t * stats
(** The list-based bitstring sweep (any z length) — the differential
    oracle for {!merge} and the benchmark baseline.  Same preconditions
    as {!merge}. *)

val nested_loop :
  Relation.t -> zr:string -> Relation.t -> zs:string -> Relation.t * stats
(** Compare all pairs directly — O(|R| * |S|), the correctness oracle
    and the planner's choice for small inputs.  Same preconditions as
    {!merge}. *)
