(** Differential fuzzing driver.

    Ties the subsystem together: deterministic case generation
    ({!Fuzz_gen} + {!Fuzz_mutate} + fault injection from
    [Oqec_workloads]), the differential oracle ({!Fuzz_oracle}), greedy
    shrinking ({!Fuzz_shrink}) and the persistent regression corpus
    ({!Fuzz_corpus}).

    Reproducibility contract: case [i] under seed [s] is a pure function
    of [(s, i)] — the per-case generator is [Rng.split_at (Rng.make
    ~seed:s) i], so any failing case can be replayed alone with
    [oqec fuzz --seed s --only i] and identical flags. *)

open Oqec_circuit

type config = {
  profile : Fuzz_gen.profile;
  runs : int;
  max_qubits : int;  (** widths are drawn in [2, max_qubits] *)
  max_gates : int;  (** base-circuit sizes are drawn in [1, max_gates] *)
  seed : int;
  shrink : bool;  (** minimise failing pairs before persisting *)
  corpus : string option;  (** corpus directory: replay + persist *)
  only : int option;  (** replay a single case index *)
  timeout : float;  (** per-checker timeout in seconds *)
  checkers : string list option;  (** restrict the oracle's checker set *)
}

val default_config : config

(** One generated case: the pair, the provable expectation, and the
    mutation/fault provenance. *)
type case = {
  index : int;
  left : Circuit.t;
  right : Circuit.t;
  expected : Fuzz_oracle.expected;
  mutations : string list;  (** preserving mutations applied, in order *)
  fault : string option;  (** breaking fault injected last, if any *)
}

(** [generate_case config i] is deterministic in [(config, i)]. *)
val generate_case : config -> int -> case

type violation = {
  v_source : string;  (** ["case <i>"] or ["corpus <id>"] *)
  v_description : string;
  v_repro : string;  (** shell command replaying the case *)
  v_gates : int;  (** total ops across the (possibly shrunk) pair *)
  v_saved : string option;  (** corpus id when newly persisted *)
}

type stats = {
  cases : int;
  failures : int;  (** generated cases with an oracle violation *)
  corpus_replayed : int;
  corpus_failures : int;
  corpus_new : int;  (** counterexamples persisted by this run *)
  mutations_applied : int;
  faults_injected : int;
  shrink_evaluations : int;  (** oracle replays spent shrinking *)
  violations : violation list;
  elapsed : float;
}

(** [run ?log config] replays the corpus (when configured), then runs
    the generated cases, shrinking and persisting counterexamples.
    [log] receives human-readable progress lines (violations and their
    repro commands). *)
val run : ?log:(string -> unit) -> config -> stats

(** One-line JSON report ([schema] field: ["oqec-fuzz/1"]). *)
val stats_to_json : config -> stats -> string
