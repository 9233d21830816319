(** Dump / restore a {!Zindex} through the file-backed page store.

    The on-disk form is the paper's "preprocessing" artifact: the point
    set with payloads, packed onto fixed-size pages in z order, plus a
    metadata page (space shape, leaf capacity).  Loading rebuilds the
    prefix B+-tree by bulk load, so a reloaded index answers queries
    identically to the original.

    The page format is v3 ([SQPZ]): each data page stores its entries'
    full-resolution z values, read as integers, as one front-coded
    {!Sqp_zorder.Zrun} (restart points every 16 entries), followed by
    the length-prefixed payloads; points are recovered by
    de-interleaving.  On the standard workload this packs ~1.6x more
    entries per page than fixed-width coordinates.  The metadata page
    also records the index's in-memory page budget so {!load} rebuilds
    with the same compressed geometry.  A store with any other metadata
    magic is {!Sqp_storage.Storage_error.Corrupt}.

    Container-level durability: {!save} writes the whole index as one
    journaled batch into [path ^ ".tmp"], then atomically renames it over
    [path] — a crash at any point leaves the previous index (or none)
    intact, never a half-written one.  {!load} runs the store's normal
    crash recovery on open. *)

val save :
  ?io:Sqp_storage.Faulty_io.injector ->
  path:string ->
  ?page_bytes:int ->
  encode:('a -> string) ->
  'a Zindex.t ->
  int
(** Write the index contents; returns the number of data pages written.
    [page_bytes] defaults to 4096.  [io] (for fault-injection tests)
    defaults to passthrough.
    @raise Invalid_argument if an encoded payload is larger than a page
    can hold. *)

val load :
  ?io:Sqp_storage.Faulty_io.injector ->
  ?lenient:bool ->
  path:string ->
  decode:(string -> 'a) ->
  unit ->
  'a Zindex.t
(** Rebuild an index from a file written by {!save}.  With
    [~lenient:true] (used after {!Sqp_storage.Fsck.salvage}) a mismatch
    between the metadata entry count and the entries actually present is
    tolerated: whatever survived is loaded.
    @raise Sqp_storage.Storage_error.Corrupt on format or checksum
    errors, including metadata naming a space [Sqp_zorder.Space.make]
    refuses. *)

(** {1 Inspection} *)

type info = {
  version : int;  (** 3, the only format *)
  dims : int;
  depth : int;
  count : int;  (** entries per the metadata page *)
  found : int;  (** entries decoded from intact data pages *)
  data_pages : int;
  page_budget : int option;  (** recorded in-memory byte budget *)
  page_errors : (int * string) list;
      (** slot, problem — including full restart-point structure
          validation ({!Sqp_zorder.Zrun.validate}) *)
}

val inspect :
  ?io:Sqp_storage.Faulty_io.injector -> path:string -> unit -> info
(** Index-format report for [sqp fsck]: the format version plus per-page
    structural problems, without rebuilding the index.  Unlike {!load},
    a damaged data page is reported, not fatal.
    @raise Sqp_storage.Storage_error.Corrupt only when the store has no
    readable metadata page, or its metadata names a space
    [Sqp_zorder.Space.make] refuses. *)
