(** Equivalence checking of circuits with symbolic parameters.

    Circuits whose rotation angles are linear combinations of named
    variables ({!Oqec_base.Phase.var}) cannot be fed to the numeric
    engines directly.  This checker follows the parameterized flow of
    mqt-qcec: the ZX engine runs on the symbolic pair first (its rewrite
    rules are phase-linear, so template pairs cancel for {e every}
    assignment — the report then carries
    {!Equivalence.Proven_symbolic}); when ZX is inconclusive, [K] random
    concrete instantiations run through the combined engine
    ({!Equivalence.Instantiated}).

    A refuting instantiation proves non-equivalence, and the report's
    [symbolic] evidence carries the concrete assignment.  Agreement on
    all [K] instantiations is statistical evidence only: distinct linear
    phase functions disagree outside a measure-zero set, so each random
    point refutes a non-equivalent pair with overwhelming probability,
    but no finite sample is a proof. *)

open Oqec_circuit

val default_instantiations : int
val default_param_seed : int

(** [joint_variables g g'] is the sorted union of the two circuits'
    symbolic variables. *)
val joint_variables : Circuit.t -> Circuit.t -> string list

(** [assignment ~param_seed k vars] is the [k]th random assignment:
    a pure function of [(param_seed, k)] (via {!Oqec_base.Rng.split_at}),
    binding each variable to an odd multiple of pi/64 — exact, and
    outside the Clifford subgroup where distinct linear phase functions
    are most likely to collide. *)
val assignment :
  param_seed:int -> int -> string list -> (string * Oqec_base.Phase.t) list

(** [check g g'] decides the symbolic pair as described above.  The
    instantiation loop runs sequentially in index order and stops at the
    first refutation, so the reported assignment depends only on
    [param_seed] — never on parallelism settings.  On a concrete pair
    (no variables) this degrades to the combined engine.  [instantiations]
    defaults to {!default_instantiations}, [param_seed] to
    {!default_param_seed}; the remaining parameters are those of
    {!Qcec.check}. *)
val check :
  ?timeout:float ->
  ?tol:float ->
  ?gc_threshold:int ->
  ?sim_runs:int ->
  ?seed:int ->
  ?scheme:Dd_scheme.t ->
  ?table:Dd_dispatch.table ->
  ?sink:Engine.Trace.sink ->
  ?instantiations:int ->
  ?param_seed:int ->
  Circuit.t ->
  Circuit.t ->
  Equivalence.report
