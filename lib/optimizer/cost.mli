(** The cost model: Section 5 of the paper, parameterized by catalog
    statistics.

    Every formula here is derived and worked through in
    [docs/COST_MODEL.md]; the unit tests pin the predictions against
    EXPLAIN ANALYZE actuals within the factors documented there.  Costs
    are in abstract {e work units} where one z-value comparison is 1.0;
    they are relative work estimates, not wall-clock predictions. *)

type params = {
  compare : float;       (** one z-value comparison (the unit) *)
  emit : float;          (** materializing one output row *)
  sort : float;          (** per item · log2(items) when sorting *)
  page_access : float;   (** touching one data page (hit or miss) *)
  distinct_witnesses : float;
      (** mean join witnesses (shared cover elements) per distinct
          object pair; divides a duplicate-eliminating projection over
          a join's output *)
}

val default_params : params

(** {1 Range search (Sections 3.3 and 5.1)} *)

type range_method = Plain | Skip

type range_alternative = { method_ : range_method }
(** What [Catalog.range_access] answers: the merge to run on the exact
    cover.  It is always [Skip], the one range path every
    server runs; [Plain] is never returned.  Kept only because the
    serving benchmark's replay matches on it (ROADMAP item 4): it goes
    at the next change to the benchmark. *)

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
(** Sort both sides, sweep once, emit the pairs: the cost of the
    z-merge every spatial join runs. *)

val scan_pages_cost : ?params:params -> pages:int -> unit -> float
(** Page-access cost of scanning a paged relation once. *)
