(** The cost model: Section 5 of the paper, parameterized by catalog
    statistics.

    Every formula here is derived and worked through in
    [docs/COST_MODEL.md]; the unit tests pin the predictions against
    EXPLAIN ANALYZE actuals within the factors documented there.  Costs
    are in abstract {e work units} where one z-value comparison is 1.0;
    they rank alternatives, they are not wall-clock predictions. *)

type params = {
  compare : float;       (** one z-value comparison (the unit) *)
  emit : float;          (** materializing one output row *)
  sort : float;          (** per item · log2(items) when sorting *)
  outer : float;         (** per outer row of a nested loop *)
  refine : float;        (** re-checking one candidate row exactly *)
  decompose : float;     (** producing one cover element *)
  page_access : float;   (** touching one data page (hit or miss) *)
  distinct_witnesses : float;
      (** mean join witnesses (shared cover elements) per distinct
          object pair; divides a duplicate-eliminating projection over
          a join's output *)
  plan_row : float;
      (** interpretive overhead per row flowing through a plan operator
          (boxed tuples, schema lookups) relative to the int-key direct
          kernels; see {!plan_path_cost} *)
}

val default_params : params

(** {1 Range search (Sections 3.3 and 5.1)} *)

type range_method = Plain | Skip

type range_alternative = {
  label : string;             (** e.g. ["skip/coarse(-2)"] *)
  method_ : range_method;
  max_level : int option;     (** decompose budget; [None] = pixel-exact *)
  elements : int;             (** |B|: cover size at that budget *)
  predicted_rows : float;     (** candidate rows out of the merge *)
  needs_refine : bool;        (** cover over-approximates the box *)
  cost : float;
}

val range_alternatives :
  ?params:params ->
  space:Sqp_zorder.Space.t ->
  hist:Histogram.t ->
  points:int ->
  lo:int array ->
  hi:int array ->
  unit ->
  range_alternative list
(** Every costed way to answer one range query over a z-sorted point
    set of [points] entries with z histogram [hist]: the plain and the
    skip merge, each at pixel-exact decomposition and at each coarsened
    budget of the sweep.  Sorted by ascending cost, so the head is the
    optimizer's choice.  Covers are computed by {!Sqp_zorder.Decompose}
    on every call, masses by {!Histogram.element_mass}.  The model's
    view, reported by [sqp bench-optimizer]: the server does not call
    it, and answers every range on the exact skip merge. *)

val predicted_range_rows :
  space:Sqp_zorder.Space.t ->
  hist:Histogram.t ->
  ?max_level:int ->
  lo:int array ->
  hi:int array ->
  unit ->
  float
(** Expected rows matching the (possibly coarsened) cover of the box. *)

val predicted_range_pages :
  ?entries_per_page:float ->
  ?rows:int ->
  n_pages:int ->
  space:Sqp_zorder.Space.t ->
  lo:int array ->
  hi:int array ->
  unit ->
  float
(** The paper's 5.3.1 block-model bound on data pages touched by a
    range query over a z-ordered paged relation of [n_pages] pages
    ({!Sqp_zorder.Zmath.predicted_range_pages}); 0 when [n_pages = 0].
    When both [entries_per_page] (the density ANALYZE measured — e.g.
    {!Zindex.avg_leaf_entries} of a front-coded index) and [rows] are
    given, the effective page count is recomputed as
    [ceil (rows / entries_per_page)] instead of trusting [n_pages]:
    compressed pages hold more entries, so the calibrated prediction
    drops accordingly. *)

val plan_path_cost : ?params:params -> points:int -> range_alternative -> float
(** What the {e plan executor} (relational operators over boxed tuples)
    would pay to answer the range query at this alternative's decompose
    budget: the full merge join of the point relation with the cover,
    the exact refine when the cover over-approximates the box, and the
    per-row interpreter overhead [plan_row].  Method-independent (the
    plan's join does not skip).  [Catalog.range_access] compares the
    cheapest exact alternative's [cost] (the direct kernel) against the
    cheapest budget under this function to pick the modelled access
    path; the server no longer makes that choice.  See
    docs/COST_MODEL.md, "Two executors". *)

(** {1 Spatial join (Sections 4 and 5)} *)

val join_pairs : Histogram.t -> Histogram.t -> float
(** Expected containment pairs between two element sets, from their
    z-prefix histograms: per bucket [b],
    [l_b * r_b * (min 1 2^(L - ll_b) + min 1 2^(L - lr_b))] where
    [ll_b]/[lr_b] are the buckets' mean element levels — the probability
    that one side's element extends the other's beyond the shared
    [L]-bit prefix, assuming uniformity within the bucket.
    @raise Invalid_argument if the histograms' [prefix_bits] differ. *)

val merge_cost :
  ?params:params -> left_rows:float -> right_rows:float -> pairs:float -> unit -> float
(** Sort both sides, sweep once, emit the pairs. *)

val nested_loop_cost :
  ?params:params -> left_rows:float -> right_rows:float -> pairs:float -> unit -> float
(** Compare every pair of rows, emit the matches. *)

val scan_pages_cost : ?params:params -> pages:int -> unit -> float
(** Page-access cost of scanning a paged relation once. *)
