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

      A cursor walks one frozen tree value; it is cheap (a spine stack)
      and single-threaded, but any number of cursors may read the same
      tree from different threads or domains. *)

  type 'a cursor

  val seek : 'a t -> Key.t -> 'a cursor
  (** Position at the first entry with key [>= k]. *)

  val seek_first : 'a t -> 'a cursor

  val cursor_peek : 'a cursor -> (Key.t * 'a) option
  (** [None] at end of data. *)

  val cursor_next : 'a cursor -> unit

  val check_invariants : 'a t -> (unit, string) result
  (** Ordering, separator bounds, uniform leaf depth, no empty leaves,
      entry count.  Occupancy is deliberately not enforced (see the
      module comment on relaxed removals). *)
end
