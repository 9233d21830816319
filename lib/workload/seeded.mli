(** The canonical seeded workload shared by the benchmark harness, the
    CLI's [query] subcommand and the observability tests.

    Before this module existed, [bench/main.ml] and [bin/main.ml] each
    re-derived the same datasets from the same magic seeds; now there is
    one definition, so "the 5000-point bench dataset" or "the 48x48 box
    join" mean the same bytes everywhere they are mentioned. *)

type t = {
  space : Sqp_zorder.Space.t;  (** 2-d, depth 10 (1024 x 1024 grid) *)
  points : int array array;    (** uniform points (seed 77) *)
  query : Sqp_geom.Box.t;
      (** the fixed range query covering 1/16 of the space *)
  query_boxes : Sqp_geom.Box.t array;
      (** random query boxes up to a quarter-side wide (seed 99) *)
  left_objects : (int * Sqp_geom.Shape.t) list;
      (** spatial-join side R: random boxes (seed 13), ids from 0 *)
  right_objects : (int * Sqp_geom.Shape.t) list;
      (** spatial-join side S: same stream continued, ids from 1000 *)
  decompose_options : Sqp_zorder.Decompose.options;
      (** how join objects are decomposed (max_level 12) *)
}

val standard_space : Sqp_zorder.Space.t
(** The space of every {!standard} workload: 2-d, depth 10. *)

val standard : ?n_points:int -> ?n_objects:int -> ?n_query_boxes:int -> unit -> t
(** The bench workload: 5000 points, 48 objects per join side, 400 query
    boxes — each scalable down (or up) without changing what the common
    prefix of any stream generates. *)

val side : t -> int
(** Grid side of [t.space]. *)

val tagged_points : t -> (int array * int) array
(** [points] tagged with their index, the form the index structures and
    range-search drivers consume. *)

val join_elements :
  t ->
  (Sqp_zorder.Bitstring.t * int) list * (Sqp_zorder.Bitstring.t * int) list
(** Both join sides decomposed to [(element, object id)] lists under
    [decompose_options] — the input shape of {!Sqp_core.Zmerge}. *)
