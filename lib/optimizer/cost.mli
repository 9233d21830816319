(** Compat names only: there is no cost model.  Every spatial join runs
    the z-merge and every range the Section 3.3 skip merge, so nothing
    is left to cost. *)

type range_method = Plain | Skip
(** Compat (ROADMAP item 1): the merge a range runs. *)

type range_alternative = { method_ : range_method }
(** Compat (ROADMAP item 1): what [Catalog.range_access] answers,
    always [Skip], the one range path every server runs; [Plain] is
    never returned.  The serving benchmark's replay matches on these
    two types; they go at the next change to the benchmark. *)
