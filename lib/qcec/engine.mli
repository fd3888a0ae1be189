(** Instrumented execution engine shared by all checkers.

    Every checking strategy — reference DD, alternating DD, simulation,
    ZX rewriting, stabilizer tableaus, and any race over them — runs as
    a {!CHECKER} under {!run}.  The checker computes a bare {!verdict};
    the engine owns everything that used to be replicated per checker:
    monotonic-clock timing, deadline and cancellation polling, split-RNG
    seeding, trace-span emission, counter accounting, and assembly of
    the final {!Equivalence.report}. *)

open Oqec_base
open Oqec_circuit

(** Lock-free trace sink producing Chrome [trace_event] JSON.

    Workers racing on separate domains push events with a
    compare-and-set loop on a shared atomic list, so tracing needs no
    locks and costs nothing when disabled ({!Trace.null}). *)
module Trace : sig
  type event =
    | Span of { name : string; cat : string; tid : int; ts_ns : int64; dur_ns : int64 }
        (** completed phase: Chrome ["ph":"X"] *)
    | Count of { name : string; tid : int; ts_ns : int64; value : int }
        (** sampled counter: Chrome ["ph":"C"] *)

  type sink

  (** Disabled sink: every emission is a no-op. *)
  val null : sink

  (** Live sink; its epoch (event timestamps are relative to it) is the
      creation instant. *)
  val create : unit -> sink

  val active : sink -> bool
  val emit : sink -> event -> unit

  (** Events in emission order. *)
  val events : sink -> event list

  (** The whole trace as a Chrome [trace_event] JSON document
      ([{"traceEvents":[...]}]) loadable in [chrome://tracing] /
      Perfetto. *)
  val to_chrome_json : sink -> string

  (** Total span duration in seconds, aggregated by span name and
      sorted by name — the per-phase totals recorded by [bench]. *)
  val totals : sink -> (string * float) list
end

(** Typed counters a checker can bump; the engine maps them to stable
    string keys in {!Equivalence.engine_stats} and to trace counter
    tracks. *)
type counter =
  | Dd_gate_applied  (** ["dd.gates_applied"] *)
  | Dd_left_applied  (** ["dd.left_applied"] — miter gates taken from G *)
  | Dd_right_applied  (** ["dd.right_applied"] — miter gates taken from G' *)
  | Dd_scheme_used of string
      (** ["dd.scheme.<name>"] — set to 1 for the application scheme a DD
          run resolved to (records what [auto] picked) *)
  | Dd_gc_run  (** ["dd.gc_runs"] *)
  | Dd_cache_hit  (** ["dd.cache_hits"] *)
  | Dd_arena_compaction  (** ["dd.arena_compactions"] *)
  | Prepare_width
      (** ["prepare.width"] — width of the aligned, flattened pair the
          worker was handed ({!Flatten.width}) *)
  | Prepare_kept
      (** ["prepare.kept"] — wires left after stripping idle ones
          ({!Flatten.kept}) *)
  | Zx_rewrite of string  (** ["zx.rewrites.<rule>"] *)
  | Sim_stimulus  (** ["sim.stimuli"] *)
  | Stab_row  (** ["stab.rows_canonicalized"] *)

val counter_key : counter -> string

(** Execution context: deadline, cancellation, tuning knobs, RNG seed
    and the trace sink, handed by the engine to a checker's [run].

    Contexts are single-owner (one domain mutates one context); the
    only shared piece is the lock-free trace {!Trace.sink}.  A race
    derives one context per worker with {!Ctx.worker}. *)
module Ctx : sig
  type t

  val make :
    ?deadline:float ->
    ?cancel:(unit -> bool) ->
    ?tol:float ->
    ?gc_threshold:int ->
    ?sim_runs:int ->
    ?seed:int ->
    ?sink:Trace.sink ->
    unit ->
    t
  (** [deadline] is absolute monotonic time ({!Mclock.now}-based). *)

  (** [worker ctx ~tid ?cancel ()] derives a context for one racing
      worker: fresh counters and guard (combining the parent deadline
      with the worker's own cancellation flag), shared trace sink,
      distinct trace thread id. *)
  val worker : t -> tid:int -> ?cancel:(unit -> bool) -> unit -> t

  (** Derived context with a (possibly tighter) deadline; counters are
      shared with the parent — used for the combined strategy's
      simulation screen. *)
  val with_deadline : t -> float -> t

  (** Derived context with a different simulation run budget (counters
      shared, like {!with_deadline}). *)
  val with_sim_runs : t -> int -> t

  val deadline : t -> float option
  val tol : t -> float option
  val gc_threshold : t -> int option
  val sim_runs : t -> int option
  val seed : t -> int option
  val sink : t -> Trace.sink
  val tid : t -> int

  (** [rng_at ctx i] is the pure split-RNG stream for stimulus [i] —
      identical regardless of sharding (see {!Oqec_base.Rng.split_at}). *)
  val rng_at : t -> int -> Rng.t

  (** Deadline/cancellation safe point: raises {!Equivalence.Timeout} /
      {!Equivalence.Cancelled}. *)
  val check : t -> unit

  (** Predicate form for ZX's [should_stop]-style callbacks. *)
  val stopper : t -> unit -> bool

  val cancelled : t -> bool
  val incr : t -> counter -> unit
  val add : t -> counter -> int -> unit

  (** Set a counter to an absolute value (e.g. final DD package cache
      hits). *)
  val set : t -> counter -> int -> unit

  (** [gauge ctx key v] records instantaneous level [v] (e.g. the live
      ZX spider count) on the trace counter track [key] and keeps the
      running maximum under [key ^ ".peak"] in the counters. *)
  val gauge : t -> string -> int -> unit

  (** Accumulated counters, sorted by key. *)
  val counters : t -> (string * int) list

  (** [span ctx ~cat name f] runs [f] inside a trace span; the span is
      closed (and emitted) even when [f] raises. *)
  val span : t -> cat:string -> string -> (unit -> 'a) -> 'a
end

(** What a checker computes; the engine turns it into a full
    {!Equivalence.report}. *)
type verdict = {
  outcome : Equivalence.outcome;
  peak_size : int;
  final_size : int;
  simulations : int;
  note : string;
  dd : Oqec_dd.Dd.stats option;
  certificate : Oqec_cert.Cert.t option;
      (** replayable evidence attached by the checker (ZX rewrite trace
          or refuting stimulus); [None] when the checker produced none *)
}

(** A checker runs on a {!Flatten.prepared} pair: the pair is aligned
    and flattened once per check and shared by every checker and racer.
    Each checker picks the full-width or the stripped pair. *)
module type CHECKER = sig
  val name : string
  val run : Ctx.t -> Flatten.prepared -> verdict
end

type checker = (module CHECKER)

(** Engine-stats entry for a finished (or cancelled) worker: the
    context's counters plus the checker's DD package statistics, if it
    produced any. *)
val stats_of : Ctx.t -> name:string -> Oqec_dd.Dd.stats option -> Equivalence.engine_stats

(** [run_worker ctx checker p] executes the checker on the prepared pair
    inside a trace span named after it, after setting [ctx]'s
    ["prepare.width"] and ["prepare.kept"] counters from [p].
    {!Equivalence.Timeout} becomes a [Timed_out] verdict;
    {!Equivalence.Cancelled} propagates (races rely on it). *)
val run_worker : Ctx.t -> checker -> Flatten.prepared -> verdict

(** [prepare ctx g g'] is {!Flatten.prepare} inside a [("flatten",
    "prepare")] trace span. *)
val prepare : Ctx.t -> Circuit.t -> Circuit.t -> Flatten.prepared

(** [run ~ctx ~method_used checker g g'] prepares the pair once
    ({!prepare}), runs {!run_worker} and assembles the report: elapsed
    monotonic time (preparation included), a single
    {!Equivalence.checker_run} entry and the engine-stats payload. *)
val run :
  ctx:Ctx.t ->
  method_used:Equivalence.method_used ->
  checker ->
  Circuit.t ->
  Circuit.t ->
  Equivalence.report
