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
(** Runs on the int-key kernel ({!Sqp_zorder.Zkernel.pairs}): both sides
    are sorted straight from their bitstrings into flat int keys and
    swept once.  It produces the same tuples in the same order as
    {!merge_reference} and the same [pairs], [sorted_items] and
    [max_stack]; [comparisons] counts each path's own sort and sweep
    (the kernel's radix sort of 64 or more values compares nothing).
    @raise Invalid_argument if attribute names of the two relations
    clash (rename first) or the z attributes hold non-[Zval] values. *)

val merge_reference :
  Relation.t -> zr:string -> Relation.t -> zs:string -> Relation.t * stats
(** The list-based bitstring sweep — the differential oracle for
    {!merge} and the benchmark baseline.  Same preconditions as
    {!merge}. *)

val nested_loop :
  Relation.t -> zr:string -> Relation.t -> zs:string -> Relation.t * stats
(** Compare all pairs directly — O(|R| * |S|), the correctness oracle
    and the planner's choice for small inputs.  Same preconditions as
    {!merge}. *)
