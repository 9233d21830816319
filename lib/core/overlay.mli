(** Polygon/region overlay on element sequences (Section 6).

    A {e layer} is a decomposed region: disjoint elements in z order, each
    carrying a label (land use, soil type, ...).  Overlay refines two
    layers into one whose regions are labelled with the pair of source
    labels — computed directly on the element sequences by interval
    arithmetic on z ranges, never touching pixels.  The paper's claim:
    this costs surface (number of elements), while the grid algorithm
    costs volume (number of pixels); see the [overlay-scaling] bench. *)

type 'a layer = (Sqp_zorder.Element.t * 'a) list

val check_layer : 'a layer -> (unit, string) result
(** Valid layers are z-ordered with pairwise-disjoint elements. *)

type stats = { input_elements : int; output_elements : int; segments : int }

val overlay :
  Sqp_zorder.Space.t ->
  'a layer ->
  'b layer ->
  ('a option * 'b option) layer * stats
(** Regions covered by at least one input, split at all boundaries of
    both, with canonical element covers; labels tell which side(s) cover
    each output element.  Adjacent output regions with equal labels are
    coalesced (canonically). *)

val union : Sqp_zorder.Space.t -> unit layer -> unit layer -> unit layer
val inter : Sqp_zorder.Space.t -> unit layer -> unit layer -> unit layer
val diff : Sqp_zorder.Space.t -> unit layer -> unit layer -> unit layer
val xor : Sqp_zorder.Space.t -> unit layer -> unit layer -> unit layer
(** Boolean region algebra derived from {!overlay}. *)

val of_shape :
  ?options:Sqp_zorder.Decompose.options ->
  Sqp_zorder.Space.t ->
  Sqp_geom.Shape.t ->
  'a ->
  'a layer

val cells : Sqp_zorder.Space.t -> 'a layer -> float
(** Total area (pixels) covered. *)
