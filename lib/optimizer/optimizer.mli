(** The cost-based optimizer: estimate, explain, validate.

    Given catalog statistics ({!Stats.analyze}) and a logical plan,
    this module (1) estimates per-operator rows, page accesses, and
    work units with the {!Cost} formulas, (2) renders the predictions
    as the EXPLAIN cost column, and (3) reconciles them against EXPLAIN
    ANALYZE actuals.  Statistics change no plan: every spatial join
    runs the z-merge, so {!choose_plan} only reports what the model
    predicts for each join.

    The formulas and their error factors are documented in
    docs/COST_MODEL.md; the EXPLAIN output grammar in docs/EXPLAIN.md. *)

type estimate = {
  est_rows : float;   (** predicted output rows of the operator *)
  est_pages : float;  (** predicted page accesses, subtree-inclusive *)
  est_cost : float;   (** predicted work units, subtree-inclusive *)
}

val estimate : ?params:Cost.params -> Stats.t -> Sqp_relalg.Plan.t -> estimate
(** Root estimate; histogram-based where the statistics cover the
    plan's leaves and z columns, textbook fallbacks elsewhere. *)

type join_decision = {
  zl : string;
  zr : string;
  left_rows : float;
  right_rows : float;
  predicted_pairs : float;
  cost_merge : float;  (** the z-merge's own work units ({!Cost.merge_cost}) *)
}
(** What the model predicts for one spatial join. *)

val choose_plan :
  ?params:Cost.params ->
  Stats.t ->
  Sqp_relalg.Plan.t ->
  Sqp_relalg.Plan.t * join_decision list
(** [(Sqp_relalg.Plan.optimize plan, joins)]: the push-down-optimized
    plan, which statistics do not change, and the prediction for each of
    its spatial joins, inner joins before the joins above them. *)

val cost_column :
  ?params:Cost.params -> Stats.t -> Sqp_relalg.Plan.t -> Sqp_relalg.Plan.t -> string
(** [cost_column stats root node] is the EXPLAIN cost annotation for
    [node] as an operator of [root] (the root fixes nothing today but
    keeps the signature stable for context-dependent costs):
    ["\[cost=... rows=... pages=...\]"] — pass partially applied as
    {!Sqp_relalg.Plan.explain}'s [annotate]. *)

val explain : ?params:Cost.params -> Stats.t -> Sqp_relalg.Plan.t -> string
(** {!Sqp_relalg.Plan.explain} with the cost column appended to every
    operator line. *)

(** {1 Predicted vs. actual} *)

type comparison_row = {
  op : string;            (** operator label, as reported by ANALYZE *)
  predicted_rows : float;
  actual_rows : int;
  predicted_pages : float;   (** subtree-inclusive, like [est_pages] *)
  actual_pages : int;        (** subtree-inclusive page accesses *)
}

val compare_analysis :
  ?params:Cost.params ->
  Stats.t ->
  Sqp_relalg.Plan.t ->
  Sqp_relalg.Plan.node_report ->
  comparison_row list
(** Walk the plan and its measured report in lockstep (they have the
    same shape) and pair every operator's predictions with its actuals,
    pre-order.  Actual pages count buffer-pool hits plus misses. *)

val render_comparison : comparison_row list -> string
(** The predicted-vs-actual table EXPLAIN ANALYZE appends when
    statistics are available: one row per operator with the rows and
    pages ratios. *)
