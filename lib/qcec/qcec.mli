(** Equivalence checking of quantum circuits — the library facade.

    Reproduces the two paradigms compared by Peham, Burgholzer and Wille
    (DAC 2022): decision diagrams (the QCEC approach) and the ZX-calculus
    (the PyZX approach).

    {[
      let g  = Oqec_workloads.Workloads.ghz 3 in
      let g' = Oqec_compile.Compile.run (Oqec_compile.Architecture.linear 5) g in
      let report = Qcec.check ~strategy:Qcec.Combined g g' in
      assert (report.Equivalence.outcome = Equivalence.Equivalent)
    ]}

    Equivalence means equality of the circuits' effective unitaries up to
    a global phase, where initial layouts, SWAP insertions and output
    permutations of compiled circuits are accounted for (Section 3). *)

open Oqec_circuit

type strategy =
  | Reference  (** build both DDs and compare (canonicity argument) *)
  | Alternating  (** miter DD kept near the identity (Section 4.1) *)
  | Simulation  (** random stimuli only: refutation or no information *)
  | Zx  (** graph-like ZX rewriting (Section 5.1) *)
  | Combined
      (** the paper's QCEC configuration: random-stimuli refutation
          followed by the alternating scheme (a sequential emulation of
          the parallel setup of Section 6.1) *)
  | Clifford
      (** stabilizer-tableau comparison — complete and polynomial for
          Clifford-only circuits, [No_information] otherwise (extension
          beyond the paper) *)
  | Portfolio
      (** the paper's QCEC configuration run {e actually} in parallel
          (Section 6.1): alternating DD, ZX and sharded random stimuli
          race on separate domains, first conclusive answer wins and
          cancels the rest (see {!Portfolio}) *)

val strategy_to_string : strategy -> string
val strategy_of_string : string -> strategy option

(** [oracle_checkers ()] is the canonical set of named {!Engine.CHECKER}s
    a differential oracle runs side by side: the alternating DD scheme
    (["dd"]), ZX rewriting (["zx"]), random-stimuli simulation (["sim"])
    and the stabilizer tableau (["stab"]).  The paper's core claim is
    that these independent paradigms must agree on every instance, which
    is exactly what the fuzzing subsystem ([oqec.fuzz]) checks: each
    entry is run through {!Engine.run_worker} under its own context and
    any verdict disagreement is a bug by construction. *)
val oracle_checkers :
  unit ->
  (string * Equivalence.method_used * Engine.checker) list

(** [check ?strategy ?timeout ?tol ?gc_threshold ?sim_runs ?seed g g']
    decides whether the circuits are equivalent up to global phase and
    layout metadata.

    [timeout] is wall-clock seconds for the whole check (default: none);
    [tol] the DD weight-interning tolerance; [gc_threshold] the DD
    package's node-reclamation trigger (see {!Oqec_dd.Dd.create});
    [sim_runs] the number of random stimuli (default 16, as in the
    paper's setup); [seed] makes stimuli reproducible; [jobs] the
    [Portfolio] strategy's simulation shard count (default
    {!Portfolio.default_jobs}; ignored by the other strategies — verdicts
    never depend on it); [scheme] selects the DD application scheme
    (default [Proportional]; [Dd_scheme.Auto] resolves per instance
    through [table], default {!Dd_dispatch.builtin}, and makes the
    [Portfolio] strategy race scheme-diverse DD workers); [checkers]
    restricts the
    [Portfolio] strategy's racers (default {!Portfolio.default_selection},
    ignored by the other strategies); [session] runs
    the DD phase of the [Alternating] and [Combined] strategies against
    a resident store ({!Oqec_dd.Dd_session}) so interned DDs persist
    across calls — the checker service's warm path; ignored by the
    other strategies and by the symbolic route (verdicts never depend
    on it: the unique and compute caches only memoise canonical
    results); [sink] collects Chrome [trace_event] spans and counters
    (see {!Engine.Trace}).

    Every strategy runs through {!Engine.run}: the report's
    [engine_stats] carries one counter payload per engine that ran
    (DD package statistics included when applicable), and for
    [Portfolio] the [winner]/[jobs]/[runs] fields record the race
    breakdown.

    Circuits with symbolic parameters ({!Circuit.is_symbolic}) are
    detected automatically and routed through {!Param_checker}: the ZX
    engine runs on the symbolic pair first, then [instantiations]
    (default {!Param_checker.default_instantiations}) random concrete
    instantiations drawn from [param_seed] (default
    {!Param_checker.default_param_seed}) run through the combined
    engine.  The report's [symbolic] field records which of the two
    paths decided.  An explicit [~strategy:Zx] instead runs the ZX
    engine natively on the symbolic pair.  Both extra parameters are
    ignored for fully-concrete circuits. *)
val check :
  ?strategy:strategy ->
  ?timeout:float ->
  ?tol:float ->
  ?gc_threshold:int ->
  ?sim_runs:int ->
  ?seed:int ->
  ?jobs:int ->
  ?scheme:Dd_scheme.t ->
  ?table:Dd_dispatch.table ->
  ?checkers:Portfolio.selection ->
  ?session:Oqec_dd.Dd_session.t ->
  ?sink:Engine.Trace.sink ->
  ?instantiations:int ->
  ?param_seed:int ->
  Circuit.t ->
  Circuit.t ->
  Equivalence.report
