type t = {
  mutable physical_reads : int;
  mutable physical_writes : int;
  mutable allocations : int;
  mutable frees : int;
  mutable pool_hits : int;
  mutable pool_misses : int;
}

let create () =
  {
    physical_reads = 0;
    physical_writes = 0;
    allocations = 0;
    frees = 0;
    pool_hits = 0;
    pool_misses = 0;
  }

let reset t =
  t.physical_reads <- 0;
  t.physical_writes <- 0;
  t.allocations <- 0;
  t.frees <- 0;
  t.pool_hits <- 0;
  t.pool_misses <- 0

let snapshot t =
  {
    physical_reads = t.physical_reads;
    physical_writes = t.physical_writes;
    allocations = t.allocations;
    frees = t.frees;
    pool_hits = t.pool_hits;
    pool_misses = t.pool_misses;
  }

let diff ~after ~before =
  {
    physical_reads = after.physical_reads - before.physical_reads;
    physical_writes = after.physical_writes - before.physical_writes;
    allocations = after.allocations - before.allocations;
    frees = after.frees - before.frees;
    pool_hits = after.pool_hits - before.pool_hits;
    pool_misses = after.pool_misses - before.pool_misses;
  }

let add a b =
  {
    physical_reads = a.physical_reads + b.physical_reads;
    physical_writes = a.physical_writes + b.physical_writes;
    allocations = a.allocations + b.allocations;
    frees = a.frees + b.frees;
    pool_hits = a.pool_hits + b.pool_hits;
    pool_misses = a.pool_misses + b.pool_misses;
  }

let sum ts = List.fold_left add (create ()) ts

let total_accesses t = t.physical_reads + t.physical_writes

let hit_ratio t =
  let total = t.pool_hits + t.pool_misses in
  if total = 0 then 0.0 else float_of_int t.pool_hits /. float_of_int total

let pp fmt t =
  Format.fprintf fmt
    "reads=%d writes=%d allocs=%d frees=%d hits=%d misses=%d (hit ratio %.2f)"
    t.physical_reads t.physical_writes t.allocations t.frees t.pool_hits
    t.pool_misses (hit_ratio t)
