(* Replayable verdict certificates: wire-format round-trips, the
   adversarial mutation suite against the independent validator, golden
   acceptance on Table-1 style instances, engine/certificate agreement
   over fuzz pairs, and the independence proof — a deliberately
   corrupted engine is caught by certificate validation, not by the
   engine itself. *)

open Oqec_base
open Oqec_circuit
open Oqec_workloads
open Oqec_qcec
module Cert = Oqec_cert.Cert
module Validate = Oqec_cert.Cert_validate
module Step = Oqec_zx.Zx_step
module G = Oqec_zx.Zx_graph
module Fuzz = Oqec_fuzz.Fuzz

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let certify outcome a b =
  match Certify.certify outcome a b with
  | Ok cert -> cert
  | Error e -> Alcotest.failf "certify: %s" e

let assert_valid msg cert =
  match Validate.validate cert with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: validator rejected: %s" msg e

(* A corrupted certificate must be rejected, and with an error message
   precise enough to name the offence. *)
let assert_rejected ?expect msg cert =
  match Validate.validate cert with
  | Ok () -> Alcotest.failf "%s: validator accepted a corrupted certificate" msg
  | Error e -> (
      match expect with
      | Some frag when not (contains e frag) ->
          Alcotest.failf "%s: error %S does not mention %S" msg e frag
      | Some _ | None -> ())

(* ------------------------------------------------------------ fixtures *)

(* S;S;S;S against the empty circuit: the miter is a chain of four
   pi/2-phase spiders, so the recorded proof is exactly three fusions
   followed by one identity removal — small and predictable enough to
   mutate surgically. *)
let s4 =
  let c = ref (Circuit.create ~name:"s4" 1) in
  for _ = 1 to 4 do
    c := Circuit.s !c 0
  done;
  !c

let empty1 = Circuit.create ~name:"id" 1
let x1 = Circuit.x (Circuit.create ~name:"x" 1) 0

let zx_proof_parts () =
  match certify Equivalence.Equivalent s4 empty1 with
  | Cert.Zx_proof { a; b; steps } -> (a, b, steps)
  | Cert.Witness _ -> Alcotest.fail "expected a zx proof"

(* ---------------------------------------------------------- round-trip *)

let roundtrip msg cert =
  let wire = Cert.serialize cert in
  match Cert.parse wire with
  | Error e -> Alcotest.failf "%s: parse failed: %s" msg e
  | Ok cert' ->
      if not (Cert.equal cert cert') then
        Alcotest.failf "%s: parse(serialize) is not the identity:\n%s" msg wire;
      (* serialising the parsed value must be a fixpoint *)
      Alcotest.(check string) (msg ^ " (fixpoint)") wire (Cert.serialize cert')

let test_roundtrip_zx () =
  let cert = certify Equivalence.Equivalent s4 empty1 in
  assert_valid "s4 proof" cert;
  roundtrip "zx proof" cert;
  let ghz = Workloads.ghz 3 in
  let cert = certify Equivalence.Equivalent ghz ghz in
  assert_valid "ghz proof" cert;
  roundtrip "ghz proof" cert

let test_roundtrip_witness () =
  let cert = certify Equivalence.Not_equivalent x1 empty1 in
  assert_valid "basis witness" cert;
  roundtrip "basis witness" cert;
  (* S vs T differ only in phases, so no basis state refutes: the
     witness search must emit a superposition preparation (H + phases),
     exercising the non-trivial stimulus encoding. *)
  let s = Circuit.s (Circuit.create ~name:"s" 1) 0 in
  let t = Circuit.t_gate (Circuit.create ~name:"t" 1) 0 in
  let cert = certify Equivalence.Not_equivalent s t in
  (match cert with
  | Cert.Witness { prep; _ } ->
      if Circuit.gate_count prep = 0 then
        Alcotest.fail "phase-only refutation should need a superposition stimulus"
  | Cert.Zx_proof _ -> Alcotest.fail "expected a witness");
  assert_valid "superposition witness" cert;
  roundtrip "superposition witness" cert

let test_wire_rejects () =
  let wire = Cert.serialize (certify Equivalence.Equivalent s4 empty1) in
  let expect_error msg frag s =
    match Cert.parse s with
    | Ok _ -> Alcotest.failf "%s: parser accepted malformed input" msg
    | Error e ->
        if not (contains e frag) then
          Alcotest.failf "%s: error %S does not mention %S" msg e frag
  in
  expect_error "empty input" "not a certificate" "";
  expect_error "garbage input" "not a certificate" "hello\nworld\n";
  (let lines = String.split_on_char '\n' wire in
   let bumped =
     String.concat "\n" ("OQEC-CERT 99" :: List.tl lines)
   in
   expect_error "unknown version" "version" bumped;
   let truncated =
     String.concat "\n" (List.filteri (fun i _ -> i < List.length lines - 2) lines)
   in
   expect_error "truncated payload" "" truncated);
  expect_error "trailing garbage" "trailing" (wire ^ "oops\n")

let phase_gen =
  QCheck.Gen.(
    oneof
      [
        map2
          (fun n d -> Phase.of_pi_fraction n (1 + abs d))
          (int_range (-8) 8) (int_range 0 7);
        map Phase.of_float (float_range (-6.0) 6.0);
      ])

let step_gen =
  QCheck.Gen.(
    let v = int_range 0 99 in
    oneof
      [
        map (fun x -> Step.Color x) v;
        map3 (fun into src ph -> Step.Fuse { into; src; ph }) v v phase_gen;
        map (fun x -> Step.Id x) v;
        map3 (fun leaf axis ph -> Step.Absorb { leaf; axis; ph }) v v phase_gen;
        map2 (fun v ph -> Step.Lcomp { v; ph }) v phase_gen;
        map
          (fun ((u, v), (pu, pv)) -> Step.Pivot { u; v; pu; pv })
          (pair (pair v v) (pair phase_gen phase_gen));
        map
          (fun ((v, b, w), h) ->
            Step.Unfuse { v; b; w; ty = (if h then G.Had else G.Simple) })
          (pair (triple v v v) bool);
        map
          (fun ((v, axis, leaf), ph) -> Step.Gadgetize { v; axis; leaf; ph })
          (pair (triple v v v) phase_gen);
        map2 (fun axis leaf -> Step.Gadget_flip { axis; leaf }) v v;
        map
          (fun ((leaf, axis), (leaf0, axis0), ph) ->
            Step.Gadget_merge { leaf; axis; leaf0; axis0; ph })
          (triple (pair v v) (pair v v) phase_gen);
      ])

let step_roundtrip =
  Helpers.qtest ~count:500 "step lines round-trip"
    (QCheck.make ~print:Step.to_string step_gen)
    (fun s ->
      match Step.of_string (Step.to_string s) with
      | Some s' -> Step.equal s s'
      | None -> false)

(* --------------------------------------------------------- adversarial *)

(* The base proof is fetched (and sanity-checked) once per mutation
   class so a failure names the class directly in the test tree. *)
let with_zx_proof f () =
  let a, b, steps = zx_proof_parts () in
  let mk steps = Cert.Zx_proof { a; b; steps } in
  assert_valid "unmutated base proof" (mk steps);
  let n = List.length steps in
  if n < 2 then Alcotest.failf "proof too small to mutate (%d steps)" n;
  (match List.hd steps with
  | Step.Fuse _ -> ()
  | s -> Alcotest.failf "expected the proof to open with a fusion, got %s" (Step.to_string s));
  f ~mk ~steps ~n

let drop_last steps n k = List.filteri (fun i _ -> i < n - k) steps

let zx_mutations =
  [
    ( "dropped first step",
      fun ~mk ~steps ~n:_ -> assert_rejected "dropped first step" (mk (List.tl steps)) );
    ( "dropped last step",
      fun ~mk ~steps ~n ->
        assert_rejected "dropped last step" (mk (drop_last steps n 1)) );
    ( "truncated tail",
      fun ~mk ~steps ~n ->
        assert_rejected "truncated tail" (mk (List.filteri (fun i _ -> i < n / 2) steps)) );
    ( "duplicated step",
      fun ~mk ~steps ~n:_ ->
        assert_rejected "duplicated step" (mk (List.hd steps :: steps)) );
    ( "reordered steps",
      fun ~mk ~steps ~n ->
        (* the final identity removal moved before the fusions *)
        assert_rejected ~expect:"non-zero phase" "reordered steps"
          (mk (List.nth steps (n - 1) :: drop_last steps n 1)) );
    ( "wrong anchor",
      fun ~mk ~steps ~n:_ ->
        (* the first fusion retargeted at a vertex that does not exist *)
        let retargeted =
          match List.hd steps with
          | Step.Fuse f -> Step.Fuse { f with src = 9999 }
          | s -> s
        in
        assert_rejected ~expect:"9999" "wrong anchor" (mk (retargeted :: List.tl steps)) );
    ( "corrupted phase",
      fun ~mk ~steps ~n:_ ->
        (* the recorded phase no longer matches the diagram *)
        let corrupted =
          match List.hd steps with
          | Step.Fuse f -> Step.Fuse { f with ph = Phase.add f.ph Phase.pi }
          | s -> s
        in
        assert_rejected ~expect:"phase" "corrupted phase" (mk (corrupted :: List.tl steps)) );
    ( "wrong final diagram",
      fun ~mk:_ ~steps ~n:_ ->
        (* the recorded steps replayed against a pair they do not reduce
           — a leftover spider must be reported *)
        let a, b, _ = zx_proof_parts () in
        ignore b;
        assert_rejected ~expect:"spider" "wrong final diagram"
          (Cert.Zx_proof { a; b = x1; steps }) );
  ]

let with_witness f () =
  let index, prep, fidelity =
    match certify Equivalence.Not_equivalent x1 empty1 with
    | Cert.Witness { index; prep; fidelity; _ } -> (index, prep, fidelity)
    | Cert.Zx_proof _ -> Alcotest.fail "expected a witness"
  in
  assert_valid "unmutated base witness"
    (Cert.Witness { a = x1; b = empty1; index; prep; fidelity });
  f ~index ~prep ~fidelity

let witness_mutations =
  [
    ( "corrupted fidelity",
      fun ~index ~prep ~fidelity:_ ->
        assert_rejected ~expect:"fidelity" "corrupted fidelity"
          (Cert.Witness { a = x1; b = empty1; index; prep; fidelity = 0.5 }) );
    ( "non-refuting witness",
      fun ~index ~prep ~fidelity:_ ->
        (* equivalent circuits: the claimed refutation does not refute *)
        assert_rejected ~expect:"does not refute" "non-refuting witness"
          (Cert.Witness { a = x1; b = x1; index; prep; fidelity = 1.0 }) );
    ( "wrong-width stimulus",
      fun ~index ~prep:_ ~fidelity ->
        assert_rejected ~expect:"width" "wrong-width stimulus"
          (Cert.Witness { a = x1; b = empty1; index; prep = Circuit.create 2; fidelity })
    );
    ( "over-wide witness",
      fun ~index:_ ~prep:_ ~fidelity:_ ->
        let wide = 1 + Cert.max_witness_qubits in
        assert_rejected ~expect:"too wide" "over-wide witness"
          (Cert.Witness
             {
               a = Circuit.x (Circuit.create wide) 0;
               b = Circuit.create wide;
               index = 0;
               prep = Circuit.create wide;
               fidelity = 0.0;
             }) );
  ]

(* -------------------------------------------------------------- golden *)

let test_golden_instances () =
  List.iter
    (fun (name, g) ->
      let arch = Oqec_compile.Architecture.linear (Circuit.num_qubits g) in
      let g' = Oqec_compile.Compile.run arch g in
      let report = Qcec.check ~strategy:Qcec.Zx g g' in
      Alcotest.(check bool)
        (name ^ " is equivalent") true
        (report.Equivalence.outcome = Equivalence.Equivalent);
      match report.Equivalence.certificate with
      | Some cert ->
          assert_valid name cert;
          roundtrip name cert
      | None -> Alcotest.failf "%s: no certificate attached" name)
    [ ("ghz-6", Workloads.ghz 6); ("qft-4", Workloads.qft 4) ]

let test_certify_dd_verdict () =
  (* A DD verdict carries no certificate of its own; the on-demand
     builder must substantiate it after the fact. *)
  let g = Workloads.ghz 5 in
  let g' = Oqec_compile.Compile.run (Oqec_compile.Architecture.linear 5) g in
  let report = Qcec.check ~strategy:Qcec.Alternating g g' in
  Alcotest.(check bool)
    "dd finds the pair equivalent" true
    (report.Equivalence.outcome = Equivalence.Equivalent);
  Alcotest.(check bool)
    "dd attaches no certificate" true
    (report.Equivalence.certificate = None);
  let cert = certify report.Equivalence.outcome g g' in
  assert_valid "on-demand proof for a dd verdict" cert

(* Two symbolic corpus pairs ([corpus/case-3e166b6468a07884],
   [corpus/case-4f0aa36120b3fb60]).  The first is refuted by
   instantiation: its witness must be searched on the pair instantiated
   at the refuting assignment.  The second is proven for every value of
   theta: its ZX proof carries symbolic phases, which the wire format
   must spell exactly.  Both go through serialize/parse, as
   [check --certify] followed by [verify-cert] does. *)
let test_symbolic_pairs () =
  let pair vars a b =
    let src body =
      Printf.sprintf "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\nparameter %s;\n%s"
        vars body
    in
    (Oqec_qasm.Qasm.circuit_of_string (src a), Oqec_qasm.Qasm.circuit_of_string (src b))
  in
  List.iter
    (fun (name, (g, g'), expected) ->
      let r = Qcec.check g g' in
      Alcotest.(check string)
        (name ^ " verdict")
        (Equivalence.outcome_to_string expected)
        (Equivalence.outcome_to_string r.Equivalence.outcome);
      match Certify.of_report r g g' with
      | Error e -> Alcotest.failf "%s: certify: %s" name e
      | Ok cert -> (
          match Cert.parse (Cert.serialize cert) with
          | Error e -> Alcotest.failf "%s: certificate does not parse back: %s" name e
          | Ok parsed ->
              Alcotest.(check bool) (name ^ " round-trips") true (Cert.equal cert parsed);
              assert_valid name parsed))
    [
      ( "instantiated refutation",
        pair "alpha" "h q[0];\nrz(alpha) q[0];\ncx q[0],q[1];\np(alpha/2) q[1];\n"
          "h q[0];\nrz(-alpha) q[0];\ncx q[0],q[1];\np(alpha/2) q[1];\n",
        Equivalence.Not_equivalent );
      ( "symbolic zx proof",
        pair "theta" "h q[0];\ncrz(theta) q[0],q[1];\nh q[1];\n"
          "h q[0];\nrz(theta/2) q[1];\ncx q[0],q[1];\nrz(-theta/2) q[1];\n\
           cx q[0],q[1];\nh q[1];\n",
        Equivalence.Equivalent );
    ]

(* ----------------------------------------------------- fuzz agreement *)

(* Over fixed-seed fuzz pairs the engines and the certificates must
   agree: a ZX [Equivalent] comes with a proof the validator accepts
   (and the dense reference confirms), a refutation yields a witness
   the validator accepts (and the dense reference confirms). *)
let test_fuzz_agreement () =
  let config = { Fuzz.default_config with Fuzz.max_qubits = 4; max_gates = 12; seed = 7 } in
  let proofs = ref 0 and witnesses = ref 0 in
  for i = 0 to 99 do
    let case = Fuzz.generate_case config i in
    let a = case.Fuzz.left and b = case.Fuzz.right in
    let al, bl = Flatten.align a b in
    let truth = Unitary.equivalent al bl in
    let ctx = Printf.sprintf "case %d" i in
    let report = Qcec.check ~strategy:Qcec.Zx a b in
    (match (report.Equivalence.outcome, report.Equivalence.certificate) with
    | Equivalence.Equivalent, Some cert ->
        if not truth then Alcotest.failf "%s: zx claims equivalence, dense refutes" ctx;
        assert_valid (ctx ^ ": zx proof") cert;
        incr proofs
    | Equivalence.Equivalent, None ->
        Alcotest.failf "%s: equivalent verdict without a certificate" ctx
    | Equivalence.Not_equivalent, _ ->
        if truth then Alcotest.failf "%s: zx refutes, dense proves equivalence" ctx;
        assert_valid (ctx ^ ": witness") (certify Equivalence.Not_equivalent a b);
        incr witnesses
    | (Equivalence.No_information | Equivalence.Timed_out), _ -> ());
    let sim = Qcec.check ~strategy:Qcec.Simulation ~sim_runs:8 ~seed:3 a b in
    match (sim.Equivalence.outcome, sim.Equivalence.certificate) with
    | Equivalence.Not_equivalent, Some cert ->
        if truth then Alcotest.failf "%s: sim refutes, dense proves equivalence" ctx;
        assert_valid (ctx ^ ": sim witness") cert;
        incr witnesses
    | Equivalence.Not_equivalent, None ->
        (* only marginal refutations (fidelity within 1e-6 of 1) go
           uncertified; random fuzz pairs should never be marginal *)
        Alcotest.failf "%s: sim refutation without a witness certificate" ctx
    | _ -> ()
  done;
  if !proofs = 0 then Alcotest.fail "no equivalent pair was exercised";
  if !witnesses = 0 then Alcotest.fail "no refuted pair was exercised"

(* -------------------------------------------------------- independence *)

(* The sabotage switch: the engine's identity matcher fires on non-zero
   phases, producing a false equivalence proof.  The engine is fooled —
   only the certificate validator, replaying against the graph
   primitives, catches the bogus step.  This is the point of the whole
   subsystem: validation must not share the engine's bugs. *)
let test_validator_catches_broken_engine () =
  let t = Circuit.t_gate (Circuit.create ~name:"t" 1) 0 in
  Atomic.set Oqec_zx.Zx_worklist.break_hook (Some "identity-phase");
  Fun.protect
    ~finally:(fun () -> Atomic.set Oqec_zx.Zx_worklist.break_hook None)
    (fun () ->
      let report = Qcec.check ~strategy:Qcec.Zx t empty1 in
      Alcotest.(check bool)
        "the corrupted engine claims a false equivalence" true
        (report.Equivalence.outcome = Equivalence.Equivalent);
      match report.Equivalence.certificate with
      | None -> Alcotest.fail "no certificate attached to the corrupted verdict"
      | Some cert -> (
          match Validate.validate cert with
          | Ok () -> Alcotest.fail "validator accepted the corrupted proof"
          | Error msg ->
              Alcotest.(check bool)
                "rejection names the bogus identity removal" true
                (contains msg "non-zero phase")))

(* Textual independence: the validator's source must never mention the
   rewrite engine's modules — replay is written against Zx_graph
   primitives only, so engine bugs cannot leak into validation. *)
let test_validator_source_independent () =
  let candidates =
    [
      "../lib/cert/cert_validate.ml";
      "../../lib/cert/cert_validate.ml";
      "lib/cert/cert_validate.ml";
    ]
  in
  match List.find_opt Sys.file_exists candidates with
  | None ->
      Alcotest.failf "cannot locate cert_validate.ml (cwd %s)" (Sys.getcwd ())
  | Some path ->
      let ic = open_in_bin path in
      let src = really_input_string ic (in_channel_length ic) in
      close_in ic;
      List.iter
        (fun forbidden ->
          if contains src forbidden then
            Alcotest.failf "validator source references the rewrite engine: %s" forbidden)
        [ "Zx_rules"; "Zx_worklist"; "Zx_simplify"; "Zx_rescan" ]

let suite =
  [
    Alcotest.test_case "zx proofs round-trip" `Quick test_roundtrip_zx;
    Alcotest.test_case "witnesses round-trip" `Quick test_roundtrip_witness;
    Alcotest.test_case "malformed wire input is rejected" `Quick test_wire_rejects;
    step_roundtrip;
  ]
  @ List.map
      (fun (name, mutate) ->
        Alcotest.test_case ("mutation rejected: " ^ name) `Quick (with_zx_proof mutate))
      zx_mutations
  @ List.map
      (fun (name, mutate) ->
        Alcotest.test_case ("witness mutation rejected: " ^ name) `Quick
          (with_witness mutate))
      witness_mutations
  @ [
    Alcotest.test_case "golden instances certify and validate" `Quick
      test_golden_instances;
    Alcotest.test_case "dd verdicts certify on demand" `Quick test_certify_dd_verdict;
    Alcotest.test_case "symbolic corpus pairs certify and validate" `Quick
      test_symbolic_pairs;
    Alcotest.test_case "engine verdicts agree with certificates on fuzz pairs" `Slow
      test_fuzz_agreement;
    Alcotest.test_case "validator catches a corrupted engine" `Quick
      test_validator_catches_broken_engine;
    Alcotest.test_case "validator source is engine-independent" `Quick
      test_validator_source_independent;
  ]
