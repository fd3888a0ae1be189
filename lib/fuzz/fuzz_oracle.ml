open Oqec_base
open Oqec_circuit
open Oqec_qcec

type expected = Expect_equivalent | Expect_not_equivalent | Expect_unknown

let expected_to_string = function
  | Expect_equivalent -> "equivalent"
  | Expect_not_equivalent -> "not_equivalent"
  | Expect_unknown -> "unknown"

let expected_of_string = function
  | "equivalent" -> Some Expect_equivalent
  | "not_equivalent" -> Some Expect_not_equivalent
  | "unknown" -> Some Expect_unknown
  | _ -> None

type verdict = {
  checker : string;
  outcome : Equivalence.outcome;
  elapsed : float;
  certificate : Oqec_cert.Cert.t option;
  cert_error : string option;
}

type result = {
  verdicts : verdict list;
  truth : bool option;
  violation : string option;
}

let dense_max_qubits = 8

(* Read once per {!run} into [sabotage] below: the oracle may be driven
   from several domains at once and must never observe a mid-run flip. *)
let break_hook : string option Atomic.t = Atomic.make None

(* The deliberate corruption applied by the test hook: conclusive
   verdicts flip, an inconclusive one becomes a (false) equivalence
   proof, so the broken checker disagrees on essentially every pair. *)
let corrupt = function
  | Equivalence.Equivalent -> Equivalence.Not_equivalent
  | Equivalence.Not_equivalent -> Equivalence.Equivalent
  | Equivalence.No_information -> Equivalence.Equivalent
  | Equivalence.Timed_out -> Equivalence.Timed_out

let run_one ~timeout ~seed ~sabotage checker_name checker p =
  let deadline = Mclock.now () +. timeout in
  let ctx = Engine.Ctx.make ~deadline ~sim_runs:16 ~seed () in
  let t0 = Mclock.now () in
  let outcome, certificate =
    match Engine.run_worker ctx checker p with
    | v -> (v.Engine.outcome, v.Engine.certificate)
    | exception Equivalence.Cancelled -> (Equivalence.Timed_out, None)
  in
  let outcome = if sabotage = Some checker_name then corrupt outcome else outcome in
  (* Cross-check: every attached certificate is replayed through the
     independent validator, so an engine whose verdict and artifact
     drift apart is caught even when every checker agrees. *)
  let cert_error =
    match certificate with
    | None -> None
    | Some c -> (
        match Oqec_cert.Cert_validate.validate c with
        | Ok () -> None
        | Error e -> Some e)
  in
  { checker = checker_name; outcome; elapsed = Mclock.now () -. t0; certificate; cert_error }

(* Soundness contract of one checker against the dense truth. *)
let sound_vs_truth name truth outcome =
  match (name, outcome) with
  | _, Equivalence.Timed_out -> true
  | ("dd" | "stab"), (Equivalence.Equivalent | Equivalence.Not_equivalent) ->
      outcome = if truth then Equivalence.Equivalent else Equivalence.Not_equivalent
  | ("dd" | "stab"), Equivalence.No_information -> true
  | "zx", Equivalence.Equivalent -> truth
  | "zx", Equivalence.Not_equivalent -> not truth
  | "sim", Equivalence.Not_equivalent -> not truth
  | "sim", Equivalence.Equivalent -> truth
  | _, _ -> true

(* A conclusive verdict is a proof for every checker in the oracle set,
   so it may be judged against a metamorphic expectation directly. *)
let sound_vs_expected expected outcome =
  match (expected, outcome) with
  | Expect_equivalent, Equivalence.Not_equivalent -> false
  | Expect_not_equivalent, Equivalence.Equivalent -> false
  | _ -> true

let describe fmt = Printf.sprintf fmt

let find_violation ~expected ~truth verdicts =
  let conclusive v =
    v.outcome = Equivalence.Equivalent || v.outcome = Equivalence.Not_equivalent
  in
  let out v = Equivalence.outcome_to_string v.outcome in
  (* 0. certificate validation: an attached artifact that fails the
     independent replay is a bug in the emitting engine regardless of
     what the other checkers think. *)
  let certificate_invalid =
    List.find_map
      (fun v ->
        Option.map
          (fun e ->
            describe "%s attached a certificate that fails independent validation: %s"
              v.checker e)
          v.cert_error)
      verdicts
  in
  (* 1. metamorphic expectation vs dense truth: a mismatch means the
     mutation's proof obligation (or the circuit library under it) is
     broken — also a bug, reported distinctly. *)
  let expectation_vs_truth =
    match (expected, truth) with
    | Expect_equivalent, Some false ->
        Some
          "metamorphic violation: mutation chain claims equivalence but the dense \
           reference refutes it"
    | Expect_not_equivalent, Some true ->
        Some
          "metamorphic violation: fault injection claims non-equivalence but the dense \
           reference proves equivalence"
    | _ -> None
  in
  (* 2. each checker against the dense truth. *)
  let checker_vs_truth =
    match truth with
    | None -> None
    | Some t ->
        List.find_map
          (fun v ->
            if sound_vs_truth v.checker t v.outcome then None
            else
              Some
                (describe "%s said %s but the dense reference says %s" v.checker (out v)
                   (if t then "equivalent" else "not equivalent")))
          verdicts
  in
  (* 3. each checker against the metamorphic expectation. *)
  let checker_vs_expected =
    List.find_map
      (fun v ->
        if sound_vs_expected expected v.outcome then None
        else
          Some
            (describe "%s said %s on a pair the mutation chain proves %s" v.checker (out v)
               (expected_to_string expected)))
      verdicts
  in
  (* 4. two checkers with opposite conclusive verdicts — the paper's
     two-paradigm disagreement, detectable at any width. *)
  let checker_vs_checker =
    let conclusives = List.filter conclusive verdicts in
    List.find_map
      (fun a ->
        List.find_map
          (fun b ->
            if a.outcome <> b.outcome then
              Some (describe "%s said %s but %s said %s" a.checker (out a) b.checker (out b))
            else None)
          conclusives)
      conclusives
  in
  List.find_map Fun.id
    [
      certificate_invalid;
      expectation_vs_truth;
      checker_vs_truth;
      checker_vs_expected;
      checker_vs_checker;
    ]

(* -------------------------------------------------------- Symbolic path *)

(* Symbolic pairs cannot be fed to the numeric checker set: they run
   through {!Param_checker} instead, and the cross-check replays the
   verdict densely at [symbolic_probes] concrete probe points drawn from
   a seed distinct from the checker's param-seed — the probes never
   reuse instantiations the checker already passed. *)
let symbolic_probes = 3
let probe_seed = 105

let run_symbolic ~timeout ~seed ~expected g g' =
  let t0 = Mclock.now () in
  let report =
    match Param_checker.check ~timeout ~seed g g' with
    | r -> r
    | exception Equivalence.Cancelled ->
        {
          Equivalence.outcome = Equivalence.Timed_out;
          method_used = Equivalence.Combined;
          elapsed = Mclock.now () -. t0;
          peak_size = 0;
          final_size = 0;
          simulations = 0;
          note = "";
          engine_stats = [];
          winner = None;
          jobs = 1;
          runs = [];
          certificate = None;
          symbolic = None;
        }
  in
  let cert_error =
    match report.Equivalence.certificate with
    | None -> None
    | Some c -> (
        match Oqec_cert.Cert_validate.validate c with Ok () -> None | Error e -> Some e)
  in
  let verdict =
    {
      checker = "param";
      outcome = report.Equivalence.outcome;
      elapsed = report.Equivalence.elapsed;
      certificate = report.Equivalence.certificate;
      cert_error;
    }
  in
  let vars = Param_checker.joint_variables g g' in
  let dense_ok =
    Circuit.num_qubits g <= dense_max_qubits && Circuit.num_qubits g' <= dense_max_qubits
  in
  let dense_equivalent asg =
    let a = Circuit.instantiate asg g and b = Circuit.instantiate asg g' in
    let a, b = Flatten.align a b in
    Unitary.equivalent a b
  in
  let truths =
    if dense_ok then
      List.init symbolic_probes (fun k ->
          dense_equivalent (Param_checker.assignment ~param_seed:probe_seed k vars))
    else []
  in
  let truth = if truths = [] then None else Some (List.for_all Fun.id truths) in
  let violation =
    (* New symbolic violation classes, checked in order of specificity. *)
    let refuting_not_refuting =
      match report.Equivalence.symbolic with
      | Some (Equivalence.Instantiated { refuting = Some asg; _ })
        when dense_ok && dense_equivalent asg ->
          Some
            "param-checker reported a refuting assignment the dense reference finds \
             non-refuting"
      | _ -> None
    in
    let verdict_vs_probes =
      match (report.Equivalence.outcome, truth) with
      | Equivalence.Equivalent, Some false ->
          Some
            "param-checker said equivalent but the dense reference refutes a probe \
             instantiation"
      | Equivalence.Not_equivalent, Some true ->
          Some
            (describe
               "param-checker said not equivalent but the dense reference proves all %d \
                probe instantiations equivalent"
               symbolic_probes)
      | _ -> None
    in
    let expectation_vs_truth =
      match (expected, truth) with
      | Expect_equivalent, Some false ->
          Some
            "metamorphic violation: mutation chain claims equivalence but the dense \
             reference refutes a probe instantiation"
      | Expect_not_equivalent, Some true ->
          Some
            "metamorphic violation: fault injection claims non-equivalence but the \
             dense reference proves every probe instantiation equivalent"
      | _ -> None
    in
    let verdict_vs_expected =
      if sound_vs_expected expected report.Equivalence.outcome then None
      else
        Some
          (describe "param said %s on a pair the mutation chain proves %s"
             (Equivalence.outcome_to_string report.Equivalence.outcome)
             (expected_to_string expected))
    in
    let certificate_invalid =
      Option.map
        (fun e ->
          describe "param attached a certificate that fails independent validation: %s" e)
        cert_error
    in
    List.find_map Fun.id
      [
        certificate_invalid;
        refuting_not_refuting;
        verdict_vs_probes;
        expectation_vs_truth;
        verdict_vs_expected;
      ]
  in
  { verdicts = [ verdict ]; truth; violation }

let run ?(timeout = 10.0) ?checkers ?(seed = 1) ~expected g g' =
  if Circuit.is_symbolic g || Circuit.is_symbolic g' then
    run_symbolic ~timeout ~seed ~expected g g'
  else
  let selected =
    match checkers with
    | None -> Qcec.oracle_checkers ()
    | Some names ->
        List.filter (fun (n, _, _) -> List.mem n names) (Qcec.oracle_checkers ())
  in
  let sabotage = Atomic.get break_hook in
  (* One prepared pair for every checker, as in a portfolio race. *)
  let p = Flatten.prepare g g' in
  let verdicts =
    List.map
      (fun (name, _, checker) -> run_one ~timeout ~seed ~sabotage name checker p)
      selected
  in
  let truth =
    if
      Circuit.num_qubits g <= dense_max_qubits
      && Circuit.num_qubits g' <= dense_max_qubits
    then
      (* Widen the narrower circuit first, exactly as the checkers do:
         compiled circuits legitimately use more wires than their
         originals. *)
      let a, b = Flatten.align g g' in
      Some (Unitary.equivalent a b)
    else None
  in
  { verdicts; truth; violation = find_violation ~expected ~truth verdicts }

let refuting_stimulus result =
  List.find_map
    (fun v ->
      match v.certificate with
      | Some (Oqec_cert.Cert.Witness { index; _ }) -> Some index
      | Some (Oqec_cert.Cert.Zx_proof _) | None -> None)
    result.verdicts
