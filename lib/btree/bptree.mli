(** Prefix B+-tree over the simulated page store.

    This is the structure of the paper's experiments (Section 5.3.2: "we
    implemented a prefix B+tree to store points in z order").  It is a
    standard B+-tree — data in leaves, leaves chained for sequential
    scans — whose internal separator keys are {e shortest separators}
    (for bitstring keys: shortest distinguishing prefixes), the defining
    feature of the prefix B+-tree.

    The tree is functorized over the key so the same code serves z values
    (bitstrings) and ordinary integer keys in tests. *)

module type KEY = sig
  type t

  val compare : t -> t -> int

  val separator : lo:t -> hi:t -> t
  (** Given [lo < hi], any [s] with [lo < s <= hi]; a good implementation
      returns a short one. *)

  val pp : Format.formatter -> t -> unit

  val encoded_bytes : t -> int
  (** Bytes this key occupies stored whole (first key of a page). *)

  val delta_bytes : prev:t -> t -> int
  (** Bytes this key occupies front-coded against its in-page
      predecessor — for z values, a shared-prefix byte plus the packed
      suffix. *)
end

module Bitstring_key : KEY with type t = Sqp_zorder.Bitstring.t

module Int_key : KEY with type t = int

type budget = {
  page_bytes : int;  (** byte capacity of a node *)
  compressed : bool;
      (** charge keys after the first their {!KEY.delta_bytes}; when
          false, every key costs [fixed_entry_bytes], reproducing the
          fixed-width baseline's fan-out under the same byte budget *)
  entry_overhead : int;  (** per-entry payload/bookkeeping charge *)
  fixed_entry_bytes : int;  (** per-key charge when not compressed *)
}
(** Byte-budget page model: a node is full when its encoded size exceeds
    [page_bytes], so prefix compression directly raises the effective
    fan-out (the tree gets shallower, range scans touch fewer pages).
    The budget should be at least 4x the largest whole-entry encoding so
    split halves always fit. *)

module Make (Key : KEY) : sig
  type 'a t

  type access_counters = {
    mutable leaf_reads : int;
    mutable internal_reads : int;
  }

  val create :
    ?policy:Sqp_storage.Buffer_pool.policy ->
    ?pool_capacity:int ->
    ?budget:budget ->
    leaf_capacity:int ->
    internal_capacity:int ->
    unit ->
    'a t
  (** [leaf_capacity]: max entries per leaf (the paper uses 20);
      [internal_capacity]: max children per internal node.
      [pool_capacity]: buffer-pool frames (default 8).
      With [budget], entry-count capacities are superseded by the byte
      model ({!budget}); deletion then only cleans up empty nodes rather
      than rebalancing to a byte target (budget trees are bulk-built).
      @raise Invalid_argument if [leaf_capacity < 2],
      [internal_capacity < 3], or the budget is malformed
      ([page_bytes < 16], negative overhead). *)

  val budget : 'a t -> budget option

  val io_stats : 'a t -> Sqp_storage.Stats.t
  (** Physical I/O + pool hit/miss counters of the underlying pager. *)

  val counters : 'a t -> access_counters
  (** Logical node-access counters (what the paper reports: page
      accesses, split by leaf = data page vs internal = index page). *)

  val reset_counters : 'a t -> unit

  (** {1 Updates} *)

  val insert : 'a t -> Key.t -> 'a -> unit
  (** Duplicate keys are permitted; later duplicates land after earlier
      ones. *)

  val delete : 'a t -> Key.t -> bool
  (** Remove one entry with the given key; [false] if absent.  Rebalances
      (borrow / merge) to maintain occupancy invariants. *)

  val bulk_load : ?fill:float -> 'a t -> (Key.t * 'a) array -> unit
  (** Replace the contents with the given {e sorted} entries, packing
      leaves to [fill] (default 1.0) of capacity.
      @raise Invalid_argument if the tree is non-empty, the input is
      unsorted, or [fill] is outside (0, 1]. *)

  (** {1 Queries} *)

  val find : 'a t -> Key.t -> 'a option

  val find_all : 'a t -> Key.t -> 'a list

  val mem : 'a t -> Key.t -> bool

  val length : 'a t -> int

  val height : 'a t -> int
  (** 1 for a single-leaf tree. *)

  val leaf_count : 'a t -> int

  (** {1 Cursors: the random + sequential access of Section 3.3} *)

  type 'a cursor

  val seek : 'a t -> Key.t -> 'a cursor
  (** Position at the first entry with key [>= k] (random access: one
      root-to-leaf descent). *)

  val seek_first : 'a t -> 'a cursor

  val cursor_peek : 'a cursor -> (Key.t * 'a) option
  (** [None] at end of data. *)

  val cursor_next : 'a cursor -> unit
  (** Advance one entry (sequential access; crossing to the next leaf
      reads one page). *)

  val cursor_page : 'a cursor -> Sqp_storage.Pager.page_id option
  (** The leaf page the cursor currently rests on. *)

  (** {1 Whole-tree access} *)

  val iter : 'a t -> (Key.t -> 'a -> unit) -> unit
  (** In key order, via the leaf chain.  Counts accesses. *)

  val to_list : 'a t -> (Key.t * 'a) list

  val leaf_pages : 'a t -> (Sqp_storage.Pager.page_id * Key.t list) list
  (** Leaves in key order with their keys — used to draw Figure 6's
      page-partition maps.  Does not touch the counters. *)

  (** {1 Compression accounting} *)

  val avg_leaf_entries : 'a t -> float
  (** Mean entries per leaf — the effective leaf capacity of a
      budget-mode tree.  Does not touch the counters. *)

  val check_invariants : 'a t -> (unit, string) result
  (** Verify ordering, separator correctness, uniform leaf depth,
      non-emptiness and internal-node occupancy bounds.  Leaf occupancy is
      not enforced: splitting inside a run of equal keys can legally leave
      a slim leaf.  For tests. *)
end
