(** Live ingest: a concurrently mutable zkd B+-tree with snapshot reads,
    durable write-ahead batches, and online index rebuild.

    The paper presents the zkd B+-tree as a dynamic structure; this
    module is the reproduction's mutable face of it.  Entries are keyed
    by their full-resolution z value, as the int key
    {!Sqp_zorder.Zkernel.point_key}, in a copy-on-write tree
    ({!Cowtree}), and the current tree root is published through an
    [Atomic.t]:

    - {b writers} are serialized by a mutex and apply whole batches —
      journal first (one {!File_pager} atomic batch, PR 3 machinery),
      then memory, then publish.  A crash at any byte leaves the store
      at exactly the pre-batch or post-batch state.
    - {b readers} take a {!snapshot} with one atomic load and then see a
      perfectly frozen index: long range scans and spatial joins never
      block writers and never observe a half-applied batch.
    - {b online rebuild} backfills a fresh, tightly packed index from a
      snapshot in z-range chunks while mutations keep flowing, catches
      up by draining a mutation feed, and swaps the result in atomically
      (also checkpointing the durable store, truncating the log).

    Every space fits one int key ([Sqp_zorder.Space.make] caps spaces at
    61 total bits); checkpoint base chunks front-code the same z values,
    read as integers, as {!Sqp_zorder.Zrun}s.

    Mutation counters land in the global {!Sqp_obs.Metrics} registry
    under [ingest.*]. *)

module Cow : module type of Cowtree.Make (Int)
(** The tree, keyed by {!Sqp_zorder.Zkernel.point_key}: native [int]
    order is z order. *)

type 'a op =
  | Insert of Sqp_geom.Point.t * 'a
  | Delete of Sqp_geom.Point.t
      (** Remove the first entry at exactly this point; a no-op if the
          point is absent (reported via the applied count). *)

type 'a t

(** {1 Construction} *)

val create :
  ?leaf_capacity:int ->
  ?internal_capacity:int ->
  encode:('a -> string) ->
  decode:(string -> 'a) ->
  Sqp_zorder.Space.t ->
  'a t
(** Purely in-memory table (no durability).  [encode]/[decode] are still
    required so the table can be checkpointed or saved later. *)

val of_entries :
  encode:('a -> string) ->
  decode:(string -> 'a) ->
  Sqp_zorder.Space.t ->
  (Sqp_geom.Point.t * 'a) array ->
  'a t
(** Bulk load: the in-memory table one {!apply} of [Insert]s of these
    entries leaves on a fresh {!create} with the default capacities —
    the same entries in the same order (equal points keep their input
    order) and the same {!seq} (1, or 0 with no entries) — built without
    path copying, its leaves packed full (20 entries, the paper's page
    capacity).  The load is not counted in the [ingest.*] batch and
    insert counters.
    @raise Invalid_argument on a point outside the space, as {!apply}. *)

val create_durable :
  ?io:Sqp_storage.Faulty_io.injector ->
  ?page_bytes:int ->
  ?leaf_capacity:int ->
  ?internal_capacity:int ->
  encode:('a -> string) ->
  decode:(string -> 'a) ->
  path:string ->
  Sqp_zorder.Space.t ->
  'a t
(** Fresh durable table backed by a journaled page store at [path]
    (truncates any previous store there).  Every {!apply} is one atomic
    page-store batch. *)

val open_durable :
  ?io:Sqp_storage.Faulty_io.injector ->
  ?leaf_capacity:int ->
  ?internal_capacity:int ->
  encode:('a -> string) ->
  decode:(string -> 'a) ->
  path:string ->
  unit ->
  'a t
(** Reopen a durable table: runs page-store crash recovery, then
    replays the base image and the logged batches in sequence order.
    The space (dims, depth) is recovered from the store's metadata.
    @raise Sqp_storage.Storage_error.Corrupt on unexplainable damage,
    including a record tag other than ['M'], ['Z'] or ['L'] and metadata
    naming a space [Sqp_zorder.Space.make] refuses. *)

val close : 'a t -> unit
(** Close the backing store, if any; idempotent. *)

val durable_ok : 'a t -> bool
(** [false] when the backing store's handle has been poisoned by a
    failed commit (e.g. [ENOSPC] mid-batch) — mutations will fail until
    {!recover} reopens it.  Always [true] for in-memory tables. *)

val recover : 'a t -> unit
(** Reopen a poisoned backing store in place: run page-store crash
    recovery (replay or discard of the journal), rebuild the in-memory
    tree from the recovered state, checkpoint it (both a fresh base
    image and a {e writability probe} — journal recovery alone never
    writes, so it cannot tell whether the disk is still full), and
    resume serving mutations.  A no-op when the store is healthy or the
    table is in-memory.  Memory is only mutated after a successful
    commit, so the reload lands on the acknowledged state (or the
    journaled batch, if replay completed it).
    @raise Sqp_storage.Storage_error.Corrupt on unexplainable damage.
    @raise Sqp_storage.Storage_error.Io_error if the disk is still sick
    (e.g. still out of space). *)

val space : 'a t -> Sqp_zorder.Space.t

val length : 'a t -> int

val seq : 'a t -> int
(** Sequence number of the last applied batch (0 when none). *)

(** {1 Mutation} *)

val apply : 'a t -> 'a op list -> int * int
(** Apply one batch atomically; [(seq, applied)] where [applied] counts
    the ops that took effect (inserts always; deletes only when the
    point was present).  An empty batch does not consume a sequence
    number.  Writers are serialized; readers are never blocked.
    @raise Invalid_argument on a point outside the table's space. *)

val insert : 'a t -> Sqp_geom.Point.t -> 'a -> int
(** Single-op batch; returns the batch's sequence number. *)

val delete : 'a t -> Sqp_geom.Point.t -> bool
(** Single-op batch; [true] if an entry was removed. *)

(** {1 Snapshot reads} *)

type 'a snapshot
(** A frozen view: one atomic load, valid forever, shared freely across
    threads and domains. *)

type scan_stats = {
  entries_scanned : int;  (** entries examined during the merge *)
  elements : int;         (** query-box elements generated *)
  results : int;
  pages : int;  (** leaves (data pages) the merge's cursor stood on *)
}
(** Deterministic per-query counters (the sequential path of the
    differential suite asserts these bit-for-bit). *)

val snapshot : 'a t -> 'a snapshot

val snapshot_seq : 'a snapshot -> int

val snapshot_space : 'a snapshot -> Sqp_zorder.Space.t

val snapshot_length : 'a snapshot -> int

val snapshot_entries : 'a snapshot -> (Sqp_geom.Point.t * 'a) list
(** All entries in z order. *)

val find : 'a snapshot -> Sqp_geom.Point.t -> 'a option
(** First entry at exactly this point. *)

val range_iter :
  'a snapshot -> Sqp_geom.Box.t -> (Sqp_geom.Point.t * 'a -> unit) -> scan_stats
(** Section 3.3's merge (eager decomposition) over the frozen tree: [f]
    is called on every entry in the inclusive box, in z order, with the
    [(point, payload)] pair the tree holds (not a copy).  Keys are
    compared with each element's int bounds
    ({!Sqp_zorder.Decompose.key_ranges}); a box reaching past the grid
    is clipped to it.  [pages] counts each leaf the merge reads once,
    however many entries, steps and re-seeks it serves (the paper's data
    page accesses, Section 5.3.2).  Besides those key ranges it
    allocates one cursor and O(1) words: nothing per scanned entry, per
    jump, per leaf or per element.
    @raise Invalid_argument if the box's dimensionality is not the
    space's. *)

val range_search :
  'a snapshot -> Sqp_geom.Box.t -> (Sqp_geom.Point.t * 'a) list * scan_stats
(** {!range_iter}, its entries accumulated in z order. *)

val equi_join :
  'a snapshot -> 'b snapshot ->
  ((Sqp_geom.Point.t * 'a) * (Sqp_geom.Point.t * 'b)) list
(** Co-location join: all pairs at equal z values (equal points), by
    merging the two frozen trees; pairs in z order, runs crossed in
    insertion order.
    @raise Invalid_argument if the spaces differ. *)

(** {1 Online index build} *)

val rebuild_online :
  ?chunk_size:int ->
  ?on_chunk:(int -> unit) ->
  'a t ->
  'a snapshot * int
(** Rebuild the live table's tree packed, without blocking writers:
    snapshot-scan in z-range chunks of [chunk_size] (default 256)
    entries — [on_chunk] runs between chunks, which is where the torture
    suite injects concurrent writes — then drain the mutation feed until
    caught up, take the writer lock for the final drain, and atomically
    swap the live tree for the freshly packed one (checkpointing the
    durable store in the same step).  Returns the swapped-in tree as a
    snapshot and the sequence number of the state it reflects. *)

val save_index :
  ?io:Sqp_storage.Faulty_io.injector ->
  ?page_bytes:int ->
  path:string ->
  'a t ->
  int
(** {!rebuild_online}, then bulk-build a {!Zindex} over the returned
    snapshot and {!Persist.save} it atomically (tmp + rename): after a
    crash the file at [path] is either the complete new index or
    whatever was there before — never a torso.  Returns the sequence
    number the saved index reflects. *)

val checkpoint : 'a t -> unit
(** Durable tables only (no-op otherwise): rewrite the base image at the
    current state and truncate the batch log, as one atomic page-store
    batch. *)
