(** Compat names only: there are no catalog statistics and no cost
    model, and {!Sqp_relalg.Plan.optimize} is the whole optimizer. *)

type stats
(** Compat (ROADMAP item 1): catalog statistics, which nothing builds;
    [Catalog.stats] always answers [None].  Abstract, so that a
    [Some st] match arm is not flagged as unreachable. *)

val choose_plan : stats -> Sqp_relalg.Plan.t -> Sqp_relalg.Plan.t * 'a list
(** Compat (ROADMAP item 1): [(Sqp_relalg.Plan.optimize plan, [])].
    The serving benchmark's replay names it; it goes at the next change
    to the benchmark. *)
