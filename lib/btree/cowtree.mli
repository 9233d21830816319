(** Persistent (copy-on-write) B+-tree: the page-level mechanism behind
    snapshot reads on the live zkd index.

    Where {!Bptree} mutates pages in a buffer pool, this tree never
    mutates a node after publishing it: every insert or remove
    path-copies the root-to-leaf spine and returns a {e new} tree value
    that shares every untouched subtree with the old one.  A reader
    holding an old root therefore sees a perfectly frozen index — the
    copy-on-write-pages snapshot scheme of the live-ingest design — while
    writers race ahead, and "taking a snapshot" is one pointer read.

    Ordering and duplicate semantics mirror {!Bptree} exactly: duplicate
    keys are permitted, an insert lands {e after} existing equals, a
    remove takes the {e first} equal entry, and a run of equal keys never
    splits across leaves (an all-equal leaf may exceed capacity rather
    than break separator invariants).  Internal separators are the
    minimum key of the right subtree at split time.

    Removals are {e relaxed}: emptied leaves are unlinked and a
    single-child root collapses, but interior occupancy is not
    rebalanced — an adversarial delete stream can leave thin nodes.  The
    live index restores tightness with an online rebuild
    ({!Live.rebuild_online}), which is also the paper-faithful answer
    (bulk loading is the paper's "preprocessing step"). *)

module type KEY = sig
  type t

  val compare : t -> t -> int
end

module Make (Key : KEY) : sig
  type 'a t
  (** An immutable tree value.  All operations are pure: "mutators"
      return a new tree. *)

  val empty : ?leaf_capacity:int -> ?internal_capacity:int -> unit -> 'a t
  (** Defaults match {!Bptree}: 20 entries per leaf, 20 children per
      internal node.
      @raise Invalid_argument if [leaf_capacity < 2] or
      [internal_capacity < 3]. *)

  val length : 'a t -> int

  val is_empty : 'a t -> bool

  val insert : 'a t -> Key.t -> 'a -> 'a t
  (** Duplicates permitted; later duplicates land after earlier ones. *)

  val remove : 'a t -> Key.t -> 'a t option
  (** Remove the first entry with this exact key; [None] if absent. *)

  val find : 'a t -> Key.t -> 'a option
  (** The first entry with this key. *)

  val find_all : 'a t -> Key.t -> 'a list
  (** All entries with this key, in insertion order. *)

  val of_sorted_array : ?leaf_capacity:int -> ?internal_capacity:int ->
    (Key.t * 'a) array -> 'a t
  (** Bulk build from entries already in key order, packing leaves full
      (never splitting a run of equal keys).
      @raise Invalid_argument if the input is unsorted. *)

  val iter : 'a t -> (Key.t -> 'a -> unit) -> unit
  (** In key order. *)

  val to_list : 'a t -> (Key.t * 'a) list

  (** {1 Cursors}

      A cursor walks one frozen tree value and is single-threaded, but
      any number of cursors may read the same tree from different
      threads or domains.  Making one allocates its spine, two arrays as
      long as the tree is high; reading, stepping and re-seeking it
      allocate nothing. *)

  type 'a cursor

  val seek : 'a t -> Key.t -> 'a cursor
  (** Position at the first entry with key [>= k]. *)

  val seek_first : 'a t -> 'a cursor

  val cursor_valid : 'a cursor -> bool
  (** [false] at end of data. *)

  val cursor_key : 'a cursor -> Key.t
  (** The key under the cursor.
      @raise Invalid_argument at end of data. *)

  val cursor_value : 'a cursor -> 'a
  (** The value under the cursor, the one the tree holds (not a copy).
      @raise Invalid_argument at end of data. *)

  val cursor_next : 'a cursor -> unit
  (** Step to the next entry; a no-op at end of data. *)

  val cursor_reseek : 'a cursor -> Key.t -> unit
  (** [cursor_reseek c k] moves [c] forward, in place, to the first entry
      at or after it with key [>= k]: where [seek] on the same tree lands
      when [k] is above the key under [c] (it descends from the root),
      and a no-op otherwise (or at end of data). *)

  val cursor_leaves : 'a cursor -> int
  (** The leaves (pages) the cursor has stood on since it was made: one
      for the leaf it was made on, one more each time a step or re-seek
      lands it on another leaf.  A step or re-seek that stays in its leaf
      does not count it again; the empty tree's leaf is never counted. *)

  val check_invariants : 'a t -> (unit, string) result
  (** Ordering, separator bounds, uniform leaf depth, no empty leaves,
      entry count.  Occupancy is deliberately not enforced (see the
      module comment on relaxed removals). *)
end
