(** Decision-diagram equivalence checking (Section 4.1).

    Both strategies decide [G ~ G'] up to global phase, honouring layout
    metadata and absorbing SWAPs via {!Flatten}.  The checkers are
    {!Engine.CHECKER} instances; timing, deadline/cancellation polling
    and report assembly live in {!Engine.run}.

    The miter-based checker is a driver over the {!Miter} core,
    parameterised by a {!Dd_scheme.APPLICATION_SCHEME}: the scheme
    decides which side contributes the next gate, the miter does the
    bookkeeping, and [Auto] resolves to a concrete scheme per instance
    through the {!Dd_dispatch} table. *)

open Oqec_circuit
open Oqec_dd

(** [scheme_checker ?session ?scheme ?table ?trace ()] is the
    ["dd-<scheme>"] checker: it builds the miter [U(G') * U(G)^dagger]
    starting from the identity, taking gates from both circuits under
    [scheme]'s side policy (default [Proportional], the repo's
    long-standing default) so the intermediate diagram stays close to
    the identity.  [Dd_scheme.Auto] is resolved per instance through
    [table] (default {!Dd_dispatch.builtin}), recording the resolved
    scheme in the ["dd.scheme.<name>"] counter.  [trace] receives the
    intermediate node count after every commit (used by the Fig. 4 demo
    and the ablations).  The DD package's interning tolerance and
    collection trigger come from the execution context
    ({!Engine.Ctx.tol}, {!Engine.Ctx.gc_threshold}); every gate
    application bumps the ["dd.gates_applied"] counter and polls the
    context's guard, and per-side applications land in
    ["dd.left_applied"] / ["dd.right_applied"].  [session] runs the
    miter against the resident store ({!Dd_session}) instead of a fresh
    package — DDs interned by earlier requests stay warm, the session's
    tuning knobs win over the context's, and the finished miter is
    unpinned so the store's epoch sweep can reclaim it. *)
val scheme_checker :
  ?session:Dd_session.t ->
  ?scheme:Dd_scheme.t ->
  ?table:Dd_dispatch.table ->
  ?trace:(int -> unit) ->
  unit ->
  Engine.checker

(** The ["reference-dd"] checker: constructs both system-matrix DDs
    independently and compares root pointers (canonicity makes this a
    constant-time comparison once built). *)
val reference : Engine.checker

(** [check_miter ?scheme ?table ?tol ?gc_threshold ?trace
    ?deadline ?cancel g g'] runs {!scheme_checker} under a fresh
    context.  [deadline] is absolute monotonic time; [cancel] is a
    portfolio stop flag polled at every gate-application safe point
    (raises {!Equivalence.Cancelled} when set). *)
val check_miter :
  ?scheme:Dd_scheme.t ->
  ?table:Dd_dispatch.table ->
  ?tol:float ->
  ?gc_threshold:int ->
  ?trace:(int -> unit) ->
  ?deadline:float ->
  ?cancel:bool Atomic.t ->
  Circuit.t ->
  Circuit.t ->
  Equivalence.report

(** [check_reference ?tol ?gc_threshold ?deadline ?cancel g g'] runs
    {!reference} under a fresh context. *)
val check_reference :
  ?tol:float ->
  ?gc_threshold:int ->
  ?deadline:float ->
  ?cancel:bool Atomic.t ->
  Circuit.t ->
  Circuit.t ->
  Equivalence.report

(** [check_approximate ?tol ?gc_threshold ?deadline ?sink ~threshold g g']
    decides approximate equivalence in the sense of the paper's
    reference [16]: the miter is built with the proportional scheme and
    the circuits count as equivalent when the normalised Hilbert-Schmidt
    overlap [|tr (U^dag V)| / 2^n] reaches [threshold].  Returns the
    report together with the measured fidelity ([nan] on timeout). *)
val check_approximate :
  ?tol:float ->
  ?gc_threshold:int ->
  ?deadline:float ->
  ?sink:Engine.Trace.sink ->
  threshold:float ->
  Circuit.t ->
  Circuit.t ->
  Equivalence.report * float
