(** Containment merge of two z-ordered element sequences — the engine
    behind the spatial join, reusable outside the relational layer.

    Input sequences need not be sorted (they are sorted internally) and
    may contain nested elements.  A pair [(a, b)] is produced whenever
    [a]'s element contains [b]'s or vice versa. *)

type stats = { pairs : int; items : int; comparisons : int }

val pairs :
  (Sqp_zorder.Element.t * 'a) list ->
  (Sqp_zorder.Element.t * 'b) list ->
  ('a * 'b) list * stats
(** Stack-based single sweep, O(n log n + output), on the int-key kernel
    ({!Sqp_zorder.Zkernel.pairs}): the same pairs in the same order as
    {!pairs_reference}. *)

val pairs_reference :
  (Sqp_zorder.Element.t * 'a) list ->
  (Sqp_zorder.Element.t * 'b) list ->
  ('a * 'b) list * stats
(** The list-based bitstring sweep — the differential oracle for
    {!pairs} and the benchmark baseline. *)

val pairs_naive :
  (Sqp_zorder.Element.t * 'a) list ->
  (Sqp_zorder.Element.t * 'b) list ->
  ('a * 'b) list * stats
(** All-pairs containment test; the oracle. *)
