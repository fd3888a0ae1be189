(** Parallel portfolio equivalence checking (Section 6.1, parallel form).

    A generic race combinator over {!Engine.CHECKER}s: every entry runs
    on its own domain under its own derived execution context, and the
    first conclusive answer ([Equivalent] / [Not_equivalent]) wins and
    cooperatively cancels the remaining workers through [Atomic.t] stop
    flags polled at the checkers' existing safe points.
    [No_information] / [Timed_out] are returned only when every worker
    yields.

    Verdicts are deterministic in [seed] and independent of [jobs]:
    stimulus [i] is a pure function of [(seed, i)], refuting shards drain
    to the globally minimal counterexample index, and every constituent
    checker is individually deterministic. *)

open Oqec_circuit

(** Default simulation shard count:
    [Domain.recommended_domain_count () - 2] (leaving room for the DD and
    ZX workers), clamped to [1, 4]. *)
val default_jobs : unit -> int

(** Which checkers race.  [default_selection] is the paper's
    configuration: [dd], [zx] and the simulation shards. *)
type selection = { use_dd : bool; use_zx : bool; use_sim : bool; use_stab : bool }

val default_selection : selection

(** Parse a comma-separated selection such as ["dd,zx,sim,stab"]. *)
val selection_of_string : string -> (selection, string) result

val selection_to_string : selection -> string

(** One racer of a {!race}: [drain] workers are not force-cancelled when
    a sibling drain worker wins — they are bounded by their own shared
    progress protocol instead (the simulation shards' minimal-index
    drain). *)
type entry

val entry : ?drain:bool -> Engine.checker -> entry

(** [race ~ctx ?jobs ?resolve entries p] runs every entry on a fresh
    domain, all on the one prepared pair [p] (worker contexts derived
    from [ctx] share its deadline and trace sink), and assembles the
    portfolio report: winner, per-worker breakdown and per-worker engine
    statistics.  [resolve] may remap the raw winning slot index to a
    display name and a canonical slot index (used to surface the
    globally-minimal simulation counterexample); [jobs] is recorded in
    the report. *)
val race :
  ctx:Engine.Ctx.t ->
  ?jobs:int ->
  ?resolve:(int -> string * int) ->
  entry list ->
  Flatten.prepared ->
  Equivalence.report

(** [check ?tol ?gc_threshold ?sim_runs ?seed ?jobs ?deadline ?scheme
    ?table ?schemes ?checkers ?sink g g'] races the selected checkers
    ([jobs] simulation shards splitting [sim_runs] stimuli round-robin,
    plus one worker per selected non-simulation checker).  [scheme]
    picks the DD application scheme (default proportional); a concrete
    scheme races as a single ["dd-<scheme>"] worker, while
    [Dd_scheme.Auto] resolves through [table] and races the resolved
    scheme alongside a structurally different partner (scheme-diverse DD
    racers).  [schemes] overrides that derivation with an explicit racer
    list.  The report's [method_used] is [Portfolio]; its
    [winner]/[jobs]/[runs] fields record the winning checker and the
    per-checker outcome/elapsed breakdown, and [engine_stats] carries
    one counter payload per worker. *)
val check :
  ?tol:float ->
  ?gc_threshold:int ->
  ?sim_runs:int ->
  ?seed:int ->
  ?jobs:int ->
  ?deadline:float ->
  ?scheme:Dd_scheme.t ->
  ?table:Dd_dispatch.table ->
  ?schemes:Dd_scheme.t list ->
  ?checkers:selection ->
  ?sink:Engine.Trace.sink ->
  Circuit.t ->
  Circuit.t ->
  Equivalence.report
