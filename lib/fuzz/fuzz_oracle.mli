(** The differential oracle: every checker, one verdict, zero tolerated
    disagreement.

    Runs the canonical checker set ({!Oqec_qcec.Qcec.oracle_checkers} —
    alternating DD, ZX rewriting, random-stimuli simulation, stabilizer
    tableau) on a circuit pair through {!Oqec_qcec.Engine.run_worker},
    plus the dense-matrix reference for small widths, and flags any
    violation of the checkers' soundness contracts:

    - [dd]: complete — a conclusive verdict must match the truth;
    - [zx]: sound both ways — [Equivalent] and [Not_equivalent] are
      proofs, [No_information] is always allowed;
    - [sim]: refutation only — [Not_equivalent] is a proof;
    - [stab]: complete on the Clifford fragment — a conclusive verdict
      must match the truth.

    With a metamorphic expectation ({!Expect_equivalent} /
    {!Expect_not_equivalent} from a provably preserving / breaking
    mutation) violations are detected even beyond the dense reference's
    reach: any conclusive verdict contradicting the expectation, or any
    two checkers giving opposite conclusive verdicts, is a bug by
    construction (the paper's two-paradigm redundancy as a standing
    correctness harness).

    Symbolic pairs ({!Oqec_circuit.Circuit.is_symbolic}) route through
    {!Oqec_qcec.Param_checker} instead of the concrete checker set.  Its
    verdict is cross-checked densely at concrete probe instantiations
    drawn from a seed distinct from the checker's param-seed, adding
    symbolic violation classes: a reported refuting assignment that the
    dense reference finds non-refuting, an equivalence verdict refuted
    at a probe point, a refutation contradicted by every probe, and the
    usual expectation and certificate contracts. *)

open Oqec_circuit

type expected = Expect_equivalent | Expect_not_equivalent | Expect_unknown

val expected_to_string : expected -> string
val expected_of_string : string -> expected option

type verdict = {
  checker : string;
  outcome : Oqec_qcec.Equivalence.outcome;
  elapsed : float;
  certificate : Oqec_cert.Cert.t option;
      (** the artifact the checker attached to its verdict, if any *)
  cert_error : string option;
      (** why the independent validator rejected it ([None] = valid or
          no certificate); any [Some] is reported as a violation *)
}

type result = {
  verdicts : verdict list;
  truth : bool option;  (** dense-reference equivalence, when width allows *)
  violation : string option;  (** human-readable description of the first violation *)
}

(** Width limit for the dense-matrix reference (8 qubits). *)
val dense_max_qubits : int

(** Hidden test hook: when set to a checker name ([dd], [zx], [sim] or
    [stab]), that checker's verdict is deliberately corrupted (conclusive
    verdicts flipped, [No_information] promoted to [Equivalent]) before
    the soundness contracts are evaluated — a known-buggy checker for
    validating that the oracle, shrinker and corpus actually catch
    disagreements end to end.  Read once at the start of each {!run}
    (never mid-run, so concurrent runs cannot tear).  Driven by the
    [OQEC_FUZZ_BREAK] environment variable in the CLI. *)
val break_hook : string option Atomic.t

(** [run ?timeout ?checkers ?seed ~expected g g'] runs every (selected)
    checker under its own engine context.  [timeout] is per checker
    (default 10 s; timeouts are never violations); [checkers] restricts
    the set by name; [seed] feeds the simulation stimuli. *)
val run :
  ?timeout:float ->
  ?checkers:string list ->
  ?seed:int ->
  expected:expected ->
  Circuit.t ->
  Circuit.t ->
  result

(** The stimulus index of the first witness certificate among the
    verdicts — the refuting stimulus the corpus records so a replay can
    re-check it directly instead of re-searching the stream. *)
val refuting_stimulus : result -> int option
