(** Logical query plans over the relational substrate.

    The PROBE framing of Section 2 is that the DBMS optimizes
    set-at-a-time operations while the object class supplies the
    element-level semantics.  This module is that thin optimizer layer: a
    plan algebra including the spatial join, a row-estimating EXPLAIN,
    and a rewriter that pushes selections below joins.  Every spatial
    join runs the z-merge ({!Spatial_join.merge}); the nested loop is
    the oracle the tests and the paper's comparison table hold it
    against, never a plan choice. *)

type pred = {
  description : string;          (** shown by EXPLAIN *)
  attrs : string list;           (** attributes the predicate reads *)
  test : Relation.tuple -> Schema.t -> bool;
}

val pred : string -> string list -> (Relation.tuple -> Schema.t -> bool) -> pred
(** [pred description attrs test] builds an arbitrary predicate.
    [attrs] must list every attribute [test] reads — the optimizer uses
    it to decide how far below joins the selection may be pushed. *)

val attr_equals : string -> Value.t -> pred
(** [attr = value]. *)

val attr_between : string -> Value.t -> Value.t -> pred
(** Inclusive range on one attribute. *)

type t =
  | Scan of Relation.t
  | Scan_stored of Stored.t
      (** scan a paged relation through its buffer pool, paying (and
          recording) page accesses — see {!Stored} *)
  | Select of pred * t
  | Project of string list * t       (** duplicate-eliminating *)
  | Project_all of string list * t   (** bag projection *)
  | Rename of (string * string) list * t
  | Sort of string list * t
  | Natural_join of t * t
  | Spatial_join of { zl : string; zr : string; left : t; right : t }
      (** [left[zl <> zr]right]: every pair whose z elements contain one
          another, by the z-merge *)
  | Product of t * t
  | Union of t * t

val schema : t -> Schema.t
(** Output schema; raises [Invalid_argument]/[Not_found] on malformed
    plans (name clashes, missing attributes). *)

val estimated_rows : t -> float
(** Crude textbook cardinality estimate (selections 1/3, natural joins
    via 1/max-side, spatial joins via element fan-out). *)

val optimize : t -> t
(** Rewrites: push selections below renames, products and joins when
    their attributes allow; fuse [Select] over [Select]; drop redundant
    [Sort] under [Sort].  Semantics-preserving. *)

val run : t -> Relation.t
(** Execute (materializing operator by operator) in the calling thread;
    every spatial join runs on the flat-array merge kernel
    ({!Spatial_join.merge}). *)

val explain : t -> string
(** An indented operator tree with schemas and row estimates. *)

(** {2 EXPLAIN ANALYZE}

    {!run_analyze} executes a plan while measuring it: every operator is
    wrapped in a {!Sqp_obs.Trace} span and reports its actual output
    rows, exclusive wall time, and exclusive page accesses (charged by
    snapshotting the live {!Stored.stats} counters of every stored
    relation in the plan before and after the operator's own work —
    children are charged separately, so the per-node numbers sum exactly
    to the run's totals). *)

type node_report = {
  op : string;               (** operator label, as in {!explain} *)
  rows : int;                (** actual output cardinality *)
  elapsed : float;           (** exclusive wall seconds (children excluded) *)
  pages : Sqp_storage.Stats.t;  (** exclusive page accesses *)
  node_attrs : (string * int) list;
      (** operator-specific counters (e.g. a spatial join's
          [comparisons]) *)
  children : node_report list;
}
(** Measured execution of one plan operator and its subtree. *)

type analysis = {
  result : Relation.t;       (** the query result *)
  report : node_report;      (** the measured operator tree *)
  total_pages : Sqp_storage.Stats.t;
      (** whole-run page accesses; equals {!sum_pages}[ report] *)
  wall_seconds : float;      (** whole-run wall time *)
}
(** Everything {!run_analyze} measured, plus the result itself. *)

val run_analyze : t -> analysis
(** Execute [plan] under measurement.  Produces the same result as
    {!run}. *)

val sum_pages : node_report -> Sqp_storage.Stats.t
(** Sum of [pages] over the whole report tree.  Always equal, counter
    for counter, to the analysis's [total_pages] — the accounting
    invariant the test suite checks. *)

val render_analysis : analysis -> string
(** The annotated operator tree as text: one line per operator with
    actual rows, milliseconds, operator counters and page accesses. *)

val explain_analyze : t -> string
(** [render_analysis (run_analyze plan)]. *)
