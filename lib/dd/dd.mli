(** Quantum multiple-valued decision diagrams (QMDDs).

    A matrix DD node at level [v] splits a [2^(v+1)]-dimensional operator
    into four equally sized sub-matrices (Section 4 of the paper); a vector
    DD node splits a state vector into two halves.  Sub-diagrams identical
    up to a constant factor are shared: the factors live on the edges,
    nodes are normalised (the first edge of maximal magnitude carries
    weight 1) and hash-consed in a unique table, making the representation
    canonical up to the interning tolerance.

    Levels run from [n-1] at the root down to [0]; edges with weight zero
    point directly at the terminal.  All operations are memoised in
    per-package compute tables.

    Representation: nodes live in an int-indexed struct-of-arrays arena
    (Bigarray columns, invisible to the OCaml GC), an edge is one
    immediate integer packing a node id with a dense weight id from
    {!Wtable}, and the unique table is sharded by hash.  A package is
    single-owner: one domain uses it at a time. *)

open Oqec_base

type pkg
type edge

(** {1 Package lifecycle} *)

val default_gc_threshold : int
val default_cache_bits : int

(** [create ?tol ?gc_threshold ?cache_bits ?shard_bits ?capacity ()]
    makes a single-owner package: unlocked consing, growable arena,
    compaction enabled.  [tol] is the weight-interning tolerance, default
    {!Cx.default_tolerance}.  [gc_threshold] is the live-node count
    beyond which {!maybe_gc} collects (default 65536): [0] collects at
    every safe point, [max_int] disables collection.  [cache_bits] sizes
    the compute caches at [2^cache_bits] slots each (default 14).
    [capacity] is the initial slot count (doubles on exhaustion);
    [shard_bits] sets the unique-table shard count to [2^shard_bits]. *)
val create :
  ?tol:float ->
  ?gc_threshold:int ->
  ?cache_bits:int ->
  ?shard_bits:int ->
  ?capacity:int ->
  unit ->
  pkg

(** {1 Edges} *)

(** The all-zero edge (weight 0 into the terminal). *)
val zero_edge : edge

(** The scalar 1 (weight 1 into the terminal). *)
val one_edge : edge

val is_zero_edge : edge -> bool

(** The arena slot index carried by an edge (0 = terminal).  Stable
    across safe points for rooted edges.  Under canonicity two edges
    denote the same matrix up to a scalar iff their node ids agree. *)
val node_id : edge -> int

val weight : pkg -> edge -> Cx.t

(** [level pkg e] is the level of [e]'s node; [-1] for the terminal. *)
val level : pkg -> edge -> int

(** [children pkg e] is the outgoing edges of [e]'s node: four for a
    matrix node, two for a vector node, none for the terminal.  Their
    weights are relative to the node, i.e. not yet multiplied by [e]'s
    own weight. *)
val children : pkg -> edge -> edge array

(** {1 Construction} *)

(** [make_node pkg v edges] is the normalising, hash-consing node
    constructor: returns an edge carrying the extracted common factor.
    [edges] has length 4 (matrix node) or 2 (vector node), all rooted
    strictly below [v] (or zero). *)
val make_node : pkg -> int -> edge array -> edge

(** [identity pkg n] is the identity matrix on [n] qubits (a linear-size
    chain, cf. Fig. 3b of the paper).  Memoised per package and marked
    by every collection, so the checker hot loop's identity probes are
    free. *)
val identity : pkg -> int -> edge

(** [kets pkg n i] is the computational basis vector |i> on [n] qubits. *)
val kets : pkg -> int -> int -> edge

(** [kets_bits pkg n bit] is the basis vector whose qubit [q] is [bit q] —
    usable beyond the native-integer width. *)
val kets_bits : pkg -> int -> (int -> bool) -> edge

(** {1 Operations} (all memoised) *)

val add : pkg -> edge -> edge -> edge

(** [mul pkg a b] multiplies two matrix DDs rooted at the same level. *)
val mul : pkg -> edge -> edge -> edge

(** [mul_vec pkg m v] applies matrix [m] to vector [v]. *)
val mul_vec : pkg -> edge -> edge -> edge

(** [adjoint pkg m] is the conjugate transpose. *)
val adjoint : pkg -> edge -> edge

(** [inner pkg a b] is the inner product <a|b> of two vector DDs rooted
    at the same level. *)
val inner : pkg -> edge -> edge -> Cx.t

(** [scale pkg z e] multiplies the edge weight by [z]. *)
val scale : pkg -> Cx.t -> edge -> edge

(** [trace pkg e] is the trace of the represented matrix — linear in the
    number of nodes. *)
val trace : pkg -> edge -> Cx.t

(** [is_identity ?up_to_phase pkg n e] decides structurally whether [e]
    is the [n]-qubit identity.  With [up_to_phase] (default [true]) the
    root weight may be any unit-magnitude number. *)
val is_identity : ?up_to_phase:bool -> pkg -> int -> edge -> bool

(** [fidelity_to_identity pkg ~n e] is [|tr e| / 2^n], the normalised
    Hilbert-Schmidt overlap with the identity (Section 3). *)
val fidelity_to_identity : pkg -> n:int -> edge -> float

(** {1 Garbage collection}

    The arena grows without intervention.  Clients register the edges
    they need to survive with {!root} (balanced by {!unroot}); {!gc} then
    marks everything reachable from those roots (plus the memoised
    identities), frees every other slot and slides surviving unrooted
    nodes down into the holes, rebuilding the unique table and dropping
    the compute caches.  Rooted nodes are pinned: their ids never move,
    so a rooted edge stays valid and canonical across collections.

    Rooting contract: collection only happens at a safe point (each gate
    application in {!Dd_circuit}).  After a collection, an edge that was
    {e not} rooted, and is not reachable from a rooted edge, must not be
    used again — its slot may have been reassigned to another node. *)

(** [root pkg e] registers [e] as a GC root.  Registrations are counted:
    rooting twice requires unrooting twice. *)
val root : pkg -> edge -> unit

(** [unroot pkg e] drops one registration of [e] (no-op if unrooted). *)
val unroot : pkg -> edge -> unit

(** [gc pkg] forces a mark-and-compact pass and returns the number of
    slots reclaimed. *)
val gc : pkg -> int

(** [maybe_gc pkg] collects iff the live-node count has crossed the
    current trigger level (the configured [gc_threshold], doubled after
    collections that reclaim too little, to avoid thrashing). *)
val maybe_gc : pkg -> unit

(** [on_safe_point pkg f] registers [f] to run at every GC safe point
    (each gate application in {!Dd_circuit}), before the collection
    check.  Checkers use this for deadline and cooperative-cancellation
    polling; [f] may raise to unwind out of the computation.  One hook
    per package (later registrations replace earlier ones). *)
val on_safe_point : pkg -> (unit -> unit) -> unit

(** [at_safe_point_hook pkg] invokes the registered hook (used by
    {!Dd_circuit} at its safe points). *)
val at_safe_point_hook : pkg -> unit

(** [clear_roots pkg] drops every external root registration at once
    (the memoised identities survive as mark roots).  This is the
    resident session store's epoch sweep: a following {!gc} reclaims
    everything no longer reachable from the identity chains.  Any edge
    the caller still holds is then unrooted, with the contract above. *)
val clear_roots : pkg -> unit

(** {1 Diagnostics} *)

(** [live pkg] is the current number of live arena slots. *)
val live : pkg -> int

(** [allocated pkg] is the total number of nodes ever hash-consed — the
    "peak size" proxy reported by the benchmarks. *)
val allocated : pkg -> int

(** [node_count pkg e] counts the distinct nodes reachable from [e]
    (terminal excluded). *)
val node_count : pkg -> edge -> int

(** Counters of one bounded, direct-mapped compute cache. *)
type cache_stats = {
  capacity : int;  (** number of slots *)
  s_filled : int;  (** slots currently occupied *)
  s_hits : int;
  s_misses : int;
  s_overwrites : int;  (** stores that evicted a different key *)
}

(** Hits over lookups, 0.0 when no lookups happened. *)
val hit_rate : cache_stats -> float

(** Arena storage: slot occupancy, growth/compaction counters and
    unique-table sharding tallies. *)
type arena_stats = {
  a_capacity : int;  (** node slots allocated in the arena *)
  a_occupancy : int;  (** node slots currently live *)
  a_resizes : int;  (** whole-arena growth events *)
  a_compactions : int;  (** compaction passes run *)
  a_shards : int;  (** unique-table shard count *)
  a_shard_resizes : int;  (** per-shard bucket-array doublings *)
}

type stats = {
  allocated : int;  (** nodes ever hash-consed *)
  live : int;  (** live arena slots right now *)
  peak_live : int;  (** largest live count observed *)
  gc_runs : int;
  gc_reclaimed : int;  (** slots freed over all runs *)
  mm : cache_stats;  (** matrix-matrix multiply cache *)
  mv : cache_stats;  (** matrix-vector multiply cache *)
  add_ : cache_stats;  (** addition cache *)
  adj : cache_stats;  (** adjoint cache *)
  inner_ : cache_stats;  (** inner-product cache *)
  weights : int;  (** distinct interned complex weights *)
  arena : arena_stats;
}
(** Engine statistics: node accounting, GC activity, per-compute-table
    hit/miss/overwrite counters, weight-table size and arena storage. *)

val stats : pkg -> stats

(** Total hits across the five compute caches. *)
val cache_hits : stats -> int

val pp_stats : Format.formatter -> stats -> unit

(** One-line JSON object (no external dependency). *)
val stats_to_json : stats -> string
