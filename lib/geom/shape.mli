(** Unified spatial-object type: the things a PROBE "specialized
    processor" would hand to the approximate-geometry object class. *)

type t =
  | Box of Box.t
  | Polygon of Polygon.t
  | Circle of Circle.t

val bounding_box : t -> Box.t

val contains_cell : t -> int -> int -> bool
(** 2d only for [Polygon] and [Circle]; a [Box] may be any dimension
    (cells are addressed by the first two coordinates for 2d shapes).
    @raise Invalid_argument for a non-2d box. *)

val classifier : Sqp_zorder.Space.t -> t -> Sqp_zorder.Decompose.classifier

val decompose :
  ?options:Sqp_zorder.Decompose.options ->
  Sqp_zorder.Space.t ->
  t ->
  Sqp_zorder.Element.t list
(** The paper's [decompose] operator for arbitrary objects:
    [Decompose.run ?options space (classifier space shape)], element for
    element.  A box that meets the grid runs
    {!Sqp_zorder.Decompose.decompose_box} on its clip instead of
    classifying elements. *)

val pp : Format.formatter -> t -> unit
