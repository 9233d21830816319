(** Relations materialized onto the simulated disk (Section 5's page
    model applied to the relational layer).

    A stored relation chunks its tuples into fixed-size pages on a
    private {!Sqp_storage.Pager} and reads them back through a
    {!Sqp_storage.Buffer_pool}, so scanning it {e costs page accesses} —
    the unit the paper measures — and those costs show up in the
    relation's {!stats} exactly like the B+-tree's do.  [Plan.Scan_stored]
    scans one of these inside a query plan, which is what lets EXPLAIN
    ANALYZE attribute page reads, buffer hits and misses to individual
    plan operators. *)

type t
(** A paged relation: schema + tuples chunked into pager pages, fronted
    by a buffer pool. *)

val store :
  ?name:string ->
  ?tuples_per_page:int ->
  ?pool_capacity:int ->
  ?policy:Sqp_storage.Buffer_pool.policy ->
  Relation.t ->
  t
(** Materialize [r] onto a fresh simulated disk.  [tuples_per_page]
    (default 32) is the page capacity — the paper's "20 points per page"
    knob; [pool_capacity] (default 8 frames) and [policy] (default LRU)
    configure the buffer pool.  Writing the pages is itself counted (one
    allocation + one physical write per page).
    @raise Invalid_argument if [tuples_per_page < 1].  [name] defaults to
    the relation's name. *)

val name : t -> string
(** The relation's name (possibly [""]). *)

val schema : t -> Schema.t
(** The stored schema. *)

val cardinality : t -> int
(** Tuple count (known without touching pages). *)

val pages : t -> int
(** Number of data pages the tuples occupy. *)

val tuples_per_page : t -> int
(** Page capacity this relation was stored with. *)

val stats : t -> Sqp_storage.Stats.t
(** The {e live} access counters of the backing disk (shared by the pager
    and its buffer pool).  Snapshot before/after an operation to charge
    its page accesses, as [Plan.run_analyze] does. *)

val scan : t -> Relation.t
(** Read every page (in order, through the buffer pool) and rebuild the
    relation.  Each scan costs [pages t] buffer-pool lookups; hits and
    misses depend on pool capacity and what ran before.  Scans of the
    same relation from concurrent threads are serialized on an internal
    latch (the buffer pool's replacement state is unsynchronized), so
    server sessions may share one catalog safely. *)

(** {1 Durable snapshots}

    The in-memory pager above simulates access costs; these two dump and
    restore a stored relation through the journaled, checksummed
    {!Sqp_storage.File_pager}, one store page per in-memory page group,
    with the same atomic-replace protocol as the index's [Persist.save]
    (journaled batch into [path ^ ".tmp"], then rename). *)

val save_to :
  ?io:Sqp_storage.Faulty_io.injector ->
  path:string ->
  ?page_bytes:int ->
  t ->
  unit
(** Write the relation (schema, name, page grouping and all tuples) to a
    store file at [path], atomically.  [page_bytes] defaults to 4096.
    @raise Invalid_argument if a page group encodes to more than a store
    page holds — raise [page_bytes] or re-[store] with fewer
    [tuples_per_page]. *)

val load_from :
  ?io:Sqp_storage.Faulty_io.injector ->
  ?pool_capacity:int ->
  ?policy:Sqp_storage.Buffer_pool.policy ->
  path:string ->
  unit ->
  t
(** Rebuild a stored relation from a file written by {!save_to}; the
    original name, schema, tuple order and [tuples_per_page] are
    restored ([pool_capacity]/[policy] configure the fresh buffer pool).
    @raise Sqp_storage.Storage_error.Corrupt on format or checksum
    errors, among them a z value that is not a text of at most
    [Sqp_zorder.Space.max_total_bits] ['0']/['1'] characters. *)
