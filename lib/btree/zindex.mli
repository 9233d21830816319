(** The zkd B+-tree: points stored in z order in a prefix B+-tree, with
    the paper's range-search algorithm (Section 3.3) on top.

    Each point is shuffled to its full-resolution z value, which is the
    B+-tree key; the tree's cursors provide the "random and sequential
    access" the algorithm needs.  Four search strategies are provided:

    - [Merge]: decompose the query box eagerly, then merge the point
      sequence with the element sequence, skipping in both directions
      (the paper's optimized algorithm);
    - [Lazy_merge]: same, but box elements are generated on demand
      (the second optimization of Section 3.3);
    - [Bigmin]: skip computation straight from the box corners without
      materializing the decomposition (Tropf-Herzog style);
    - [Scan]: read every data page and filter (the baseline that shows
      why one wants an MDS at all). *)

module Tree : module type of Bptree.Make (Bptree.Bitstring_key)

type 'a t

type strategy = Merge | Lazy_merge | Bigmin | Scan

type query_stats = {
  data_pages : int;       (** distinct leaf pages touched *)
  leaf_accesses : int;    (** leaf-node reads, with repetition *)
  internal_accesses : int;(** index-node reads (descents) *)
  elements : int;         (** query-box elements generated / used *)
  entries_scanned : int;  (** entries examined in leaves *)
  results : int;
  pool_hits : int;        (** buffer-pool hits during this query *)
  pool_misses : int;      (** buffer-pool misses (physical page reads) *)
}

val create :
  ?policy:Sqp_storage.Buffer_pool.policy ->
  ?pool_capacity:int ->
  ?leaf_capacity:int ->
  ?internal_capacity:int ->
  ?page_budget:int ->
  ?compressed:bool ->
  ?value_bytes:int ->
  Sqp_zorder.Space.t ->
  'a t
(** Defaults: leaf capacity 20 (the paper's page size), internal capacity
    20, LRU pool of 8 frames.  [page_budget] switches pages to the byte
    model of {!Bptree.budget}: each node holds as many entries as fit in
    that many bytes, front-coded when [compressed] (default [true]) or
    at a fixed width of 4 bytes per coordinate otherwise — the latter is
    the calibrated baseline for differential tests.  [value_bytes] (default 8) is the
    per-entry payload charge. *)

val space : 'a t -> Sqp_zorder.Space.t

val of_points :
  ?policy:Sqp_storage.Buffer_pool.policy ->
  ?pool_capacity:int ->
  ?leaf_capacity:int ->
  ?internal_capacity:int ->
  ?page_budget:int ->
  ?compressed:bool ->
  ?value_bytes:int ->
  ?fill:float ->
  Sqp_zorder.Space.t ->
  (Sqp_geom.Point.t * 'a) array ->
  'a t
(** Bulk build: shuffle, sort by z value, pack leaves ([fill] default 1.0).
    This is the paper's "preprocessing step" (step 1 of Section 3.3).
    Compression options as in {!create}. *)

val insert : 'a t -> Sqp_geom.Point.t -> 'a -> unit

val delete : 'a t -> Sqp_geom.Point.t -> bool
(** Remove one entry at exactly this point. *)

val find : 'a t -> Sqp_geom.Point.t -> 'a option
(** Exact-match lookup. *)

val length : 'a t -> int

val data_page_count : 'a t -> int

val leaf_capacity : 'a t -> int
(** Page capacity the index was built with. *)

val page_budget : 'a t -> int option
(** The byte budget per page, when the index uses the byte model. *)

val compressed : 'a t -> bool
(** Whether pages are front-coded (implies a byte budget). *)

val tree : 'a t -> (Sqp_geom.Point.t * 'a) Tree.t
(** The underlying prefix B+-tree (for inspection and tests). *)

val range_search :
  ?strategy:strategy ->
  'a t ->
  Sqp_geom.Box.t ->
  (Sqp_geom.Point.t * 'a) list * query_stats
(** All points in the (inclusive) box, in z order, plus access statistics
    for this query alone. *)

val partial_match :
  ?strategy:strategy ->
  'a t ->
  (int option) array ->
  (Sqp_geom.Point.t * 'a) list * query_stats
(** [partial_match t specs]: [specs.(i) = Some v] pins axis [i] to [v],
    [None] leaves it unrestricted (Section 5.3.1's partial match query). *)

(** {1 Proximity queries (Section 6)}

    "Proximity queries can often be translated into containment or overlap
    queries": both operations below run ordinary range searches over
    expanding / expanded boxes and refine with exact distances. *)

val within_distance :
  ?strategy:strategy ->
  'a t ->
  Sqp_geom.Point.t ->
  radius:float ->
  (Sqp_geom.Point.t * 'a) list * query_stats
(** All points within Euclidean distance [radius] of the centre: one range
    search over the bounding box of the disc, filtered exactly. *)

val nearest :
  ?strategy:strategy ->
  'a t ->
  Sqp_geom.Point.t ->
  ((Sqp_geom.Point.t * 'a) * query_stats) option
(** Nearest neighbour by Euclidean distance ([None] on an empty index):
    range searches over boxes of doubling radius until the best candidate
    is provably closer than the unexplored region.  The returned stats
    accumulate over all rounds. *)

val k_nearest :
  ?strategy:strategy ->
  'a t ->
  Sqp_geom.Point.t ->
  k:int ->
  (Sqp_geom.Point.t * 'a) list * query_stats
(** The [k] nearest points by Euclidean distance (fewer if the index is
    smaller), closest first; ties broken by z order.  Same expanding-box
    scheme as {!nearest}. *)

val efficiency : 'a t -> query_stats -> float
(** [results / (data_pages * leaf_capacity)]: the fraction of retrieved
    page slots holding answers — the experiments' "efficiency" measure. *)

val leaf_points : 'a t -> (Sqp_storage.Pager.page_id * Sqp_geom.Point.t list) list
(** Points grouped by leaf page, in z order — the raw material of
    Figure 6.  Does not disturb the counters. *)

val io_stats : 'a t -> Sqp_storage.Stats.t
