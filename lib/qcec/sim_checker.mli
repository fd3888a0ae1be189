(** Random-stimuli simulation (the non-equivalence detector of [20]/[45]).

    Runs both circuits on random computational basis states with
    decision-diagram simulation and compares output states by fidelity.
    A single mismatch proves non-equivalence; agreement on all runs
    yields [No_information] (strong evidence, not proof).

    Stimulus [i] is a pure function of [(seed, i)] (drawn from
    {!Oqec_base.Rng.split_at}), so the stimulus stream — and with it the
    reported counterexample — is identical whether the indices are
    checked sequentially by {!checker} or spread over shards by
    {!shard}.  The run count and seed come from the execution context
    ({!Engine.Ctx.sim_runs}, default 16; {!Engine.Ctx.seed}, default 1);
    every completed stimulus bumps the ["sim.stimuli"] counter.

    The runs evolve the prepared pair's stripped circuits
    ({!Flatten.stripped}).  Stimulus [i] on the stripped register is
    [stimulus_bits ~seed ~index:i width] restricted to
    {!Flatten.wires}: idle wires contribute an overlap of exactly 1, so
    refuting indices and fidelities equal the full-width ones, and
    witness certificates carry the full-width pair. *)

open Oqec_circuit

(** The sequential ["simulation"] checker. *)
val checker : Engine.checker

(** [shard ~shard ~jobs ~best] is the portfolio worker
    ["simulation-<shard>"]: it checks stimulus indices
    [shard, shard+jobs, ...] below the context's run count in increasing
    order.  [best] is the shared minimal-refuting-index cell (initially
    [max_int]): a shard that finds a mismatch at index [i] lowers [best]
    to [i] (monotonically), and every shard stops scanning at
    [Atomic.get best] — so after all shards return, [best] is the
    {e global} minimal refuting index, independent of [jobs].  A
    stimulus whose index stops being minimal mid-run is abandoned via
    {!Equivalence.Cancelled}; the context's own cancellation aborts the
    whole shard (another checker of the portfolio won). *)
val shard : shard:int -> jobs:int -> best:int Atomic.t -> Engine.checker

(** [stimulus_bits ~seed ~index n] is the deterministic bit pattern of
    stimulus [index] on an [n]-wire register (exposed for the sharding
    determinism tests). *)
val stimulus_bits : seed:int -> index:int -> int -> bool array

val check :
  ?tol:float ->
  ?gc_threshold:int ->
  ?runs:int ->
  ?seed:int ->
  ?deadline:float ->
  ?cancel:bool Atomic.t ->
  Circuit.t ->
  Circuit.t ->
  Equivalence.report

(** {!shard} under a fresh context (see {!shard} for the protocol). *)
val check_shard :
  ?tol:float ->
  ?gc_threshold:int ->
  ?deadline:float ->
  ?cancel:bool Atomic.t ->
  runs:int ->
  seed:int ->
  shard:int ->
  jobs:int ->
  best:int Atomic.t ->
  Circuit.t ->
  Circuit.t ->
  Equivalence.report
