open Oqec_dd

(** Explicit miter state for the DD checkers.

    A miter holds the evolving product
    [D = b_j ... b_0 * inv(a_0) ... inv(a_i)] over a DD package, plus
    the per-side cursors: the left side consumes [G] inverted from the
    right, the right side consumes [G'] from the left, and [D] is the
    identity once both are exhausted iff the circuits agree.  The order
    of applications — the application scheme — is the caller's business:
    drivers pick sides via {!Dd_scheme.APPLICATION_SCHEME} over
    {!probe} snapshots. *)

(** Fidelity at or above this counts as identity, mirroring the
    structural test's tolerance. *)
val fidelity_threshold : float

(** [hook_pkg ctx pkg] makes every gate-application safe point of [pkg]
    bump the ["dd.gates_applied"] counter and poll [ctx]'s deadline and
    cancellation. *)
val hook_pkg : Engine.Ctx.t -> Dd.pkg -> unit

(** [package_counters ctx pkg] folds the package's GC, cache and arena
    accounting into [ctx]'s counters and returns its statistics. *)
val package_counters : Engine.Ctx.t -> Dd.pkg -> Dd.stats

(** [conclude_edge pkg n d] is the verdict on a miter edge over [n]
    qubits: structural identity up to phase, with the fidelity fallback
    against {!fidelity_threshold}.  The threshold fixes the checker's
    tolerance: a residual [rz(e)] has fidelity [~ 1 - e^2/8], so it is
    refuted at [e = 1e-4] and read as the identity at [e = 1e-5]. *)
val conclude_edge : Dd.pkg -> int -> Dd.edge -> Equivalence.outcome

type t

(** [create ctx ?session ?trace p] lowers both circuits of [p]'s
    stripped pair ({!Flatten.stripped}) to elementary gates, allocates a package from the context's tuning
    knobs and pins the identity as the initial miter.  With [session]
    the package instead comes from the resident store
    ({!Oqec_dd.Dd_session}): interned DDs and memoised products from
    earlier requests stay warm, and the session's tuning knobs
    override the context's.  [trace] is called with the live node
    count after every commit (and once at creation).  Gate application
    is the package's GC safe point and the engine's
    deadline/cancellation polling point. *)
val create :
  Engine.Ctx.t ->
  ?session:Dd_session.t ->
  ?trace:(int -> unit) ->
  Flatten.prepared ->
  t

val package : t -> Dd.pkg
val qubits : t -> int

(** The live (rooted) miter edge. *)
val edge : t -> Dd.edge

val left_remaining : t -> int
val right_remaining : t -> int
val exhausted : t -> bool

(** Node count of the live miter. *)
val live_size : t -> int

(** Speculatively apply the side's next gate and return the resulting
    node count.  The candidate is memoised (and GC-rooted) until the
    next commit, so a following apply of the same side promotes it
    without recomputation. *)
val peek_left : t -> int

val peek_right : t -> int

(** Commit the side's next gate into the miter (reusing the peeked
    candidate if one is cached), advance the cursor and bump the
    engine's per-side counter. *)
val apply : t -> Dd_scheme.side -> unit

(** Snapshot handed to {!Dd_scheme.APPLICATION_SCHEME.choose}. *)
val probe : t -> Dd_scheme.probe

(** Hilbert-Schmidt fidelity of the miter to the identity,
    [|tr D| / 2^n]. *)
val fidelity : t -> float

(** Verdict on the (normally exhausted) miter: structural identity up
    to phase, with the fidelity fallback against
    {!fidelity_threshold}. *)
val conclude : t -> Equivalence.outcome

(** Drop every root the miter still holds (final edge and speculative
    candidates).  Mandatory after concluding on a [session] package —
    otherwise each request leaves its miter pinned in the resident
    store forever; harmless on fresh packages.  The miter must not be
    used afterwards. *)
val release : t -> unit
