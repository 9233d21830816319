(** Access-cost accounting.  The paper's experiments measure page accesses
    rather than wall-clock time; these counters are the repository's unit
    of cost throughout. *)

type t = {
  mutable physical_reads : int;   (** pages fetched from the "disk" *)
  mutable physical_writes : int;  (** pages written back *)
  mutable allocations : int;      (** pages allocated *)
  mutable frees : int;
  mutable pool_hits : int;        (** buffer-pool hits *)
  mutable pool_misses : int;
}

val create : unit -> t
(** All counters zero. *)

val reset : t -> unit
(** Zero every counter in place. *)

val snapshot : t -> t
(** An independent copy. *)

val diff : after:t -> before:t -> t
(** Counter-wise subtraction.  Reads both records at call time, so
    aliased arguments ([diff ~after:t ~before:t]) yield all zeros; to
    measure an interval against a live counter, take a {!snapshot} as
    [before] first. *)

val add : t -> t -> t
(** Counter-wise sum, as a fresh record. *)

val sum : t list -> t
(** Fold of {!add} over fresh zeros — how EXPLAIN ANALYZE totals the
    page accesses of every stored relation a plan scans. *)

val total_accesses : t -> int
(** [physical_reads + physical_writes]. *)

val hit_ratio : t -> float
(** [hits / (hits + misses)]; 0 if no pool traffic. *)

val pp : Format.formatter -> t -> unit
(** One-line rendering of all six counters. *)
