(* End-to-end tests of the equivalence-checking engine. *)

open Oqec_base
open Oqec_circuit
open Oqec_compile
open Oqec_workloads.Workloads
open Oqec_qcec
open Helpers

let outcome_testable =
  Alcotest.testable
    (fun ppf o -> Format.pp_print_string ppf (Equivalence.outcome_to_string o))
    ( = )

let check_outcome name expected strategy g g' =
  let r = Qcec.check ~strategy ~seed:7 g g' in
  Alcotest.check outcome_testable name expected r.Equivalence.outcome

(* ---------------------------------------------------------------- Flatten *)

let random_layout_circuit seed =
  let rng = Rng.make ~seed in
  let n = 2 + Rng.int rng 3 in
  let c = ref (Circuit.create n) in
  for _ = 1 to 12 do
    let q = Rng.int rng n in
    let q2 = (q + 1 + Rng.int rng (n - 1)) mod n in
    match Rng.int rng 6 with
    | 0 -> c := Circuit.h !c q
    | 1 -> c := Circuit.t_gate !c q
    | 2 -> c := Circuit.cx !c q q2
    | 3 -> c := Circuit.rz !c (Phase.of_pi_fraction (Rng.int rng 16) 8) q
    | 4 -> c := Circuit.swap !c q q2
    | _ -> c := Circuit.cz !c q q2
  done;
  let layout = if Rng.bool rng then Some (Perm.random (Rng.int rng) n) else None in
  let out = if Rng.bool rng then Some (Perm.random (Rng.int rng) n) else None in
  Circuit.with_output_perm (Circuit.with_initial_layout !c layout) out

let prop_flatten_matches_effective =
  qtest ~count:60 "flatten: unitary equals the effective unitary"
    QCheck.(make ~print:string_of_int Gen.int)
    (fun seed ->
      let c = random_layout_circuit seed in
      let f = Flatten.flatten c in
      Circuit.initial_layout f = None
      && Circuit.output_perm f = None
      && Dmatrix.equal ~tol:1e-8 (Unitary.effective_unitary c) (Unitary.unitary f))

let test_flatten_absorbs_swaps () =
  let c = Circuit.swap (Circuit.cx (Circuit.swap (Circuit.create 3) 0 1) 1 2) 1 2 in
  let f = Flatten.flatten c in
  (* The two SWAPs become permutation tracking; only the CX (relabelled)
     plus the final correction swaps remain. *)
  check_matrix "semantics" (Unitary.effective_unitary c) (Unitary.unitary f)

let test_flatten_reconstructs_cx_swaps () =
  let c = Circuit.cx (Circuit.cx (Circuit.cx (Circuit.create 2) 0 1) 1 0) 0 1 in
  let c = Circuit.with_output_perm c (Some (Perm.of_array [| 1; 0 |])) in
  let f = Flatten.flatten c in
  Alcotest.(check int) "everything absorbed" 0 (Circuit.gate_count f)

(* ------------------------------------------------------------ Strategies *)

let all_strategies = Qcec.[ Reference; Alternating; Zx; Combined ]

let test_identical_circuits () =
  let c = ghz 4 in
  List.iter
    (fun s ->
      check_outcome
        ("identical: " ^ Qcec.strategy_to_string s)
        Equivalence.Equivalent s c c)
    all_strategies

let test_trivially_different () =
  let c = ghz 4 in
  let broken = Circuit.x c 2 in
  List.iter
    (fun s ->
      check_outcome
        ("different: " ^ Qcec.strategy_to_string s)
        Equivalence.Not_equivalent s c broken)
    Qcec.[ Reference; Alternating; Combined ]

let test_simulation_refutes () =
  let c = ghz 4 in
  let broken = Circuit.x c 2 in
  check_outcome "simulation refutes" Equivalence.Not_equivalent Qcec.Simulation c broken

let test_simulation_no_proof () =
  let c = ghz 4 in
  let r = Qcec.check ~strategy:Qcec.Simulation c c in
  Alcotest.check outcome_testable "no proof from sims" Equivalence.No_information
    r.Equivalence.outcome;
  Alcotest.(check int) "all sims ran" 16 r.Equivalence.simulations

(* ------------------------------------------------- Compilation use case *)

let compiled_pairs =
  lazy
    [
      ("ghz-5/linear-7", ghz 5, Compile.run (Architecture.linear 7) (ghz 5));
      ("qft-4/ring-5", qft 4, Compile.run (Architecture.ring 5) (qft 4));
      ( "grover-3/linear-5",
        grover ~seed:3 3,
        Compile.run (Architecture.linear 5) (grover ~seed:3 3) );
      ( "adder-2/linear-6",
        ripple_adder 2,
        Compile.run (Architecture.linear 6) (ripple_adder 2) );
    ]

let test_compiled_equivalent_dd () =
  List.iter
    (fun (name, g, g') ->
      check_outcome (name ^ " dd") Equivalence.Equivalent Qcec.Alternating g g')
    (Lazy.force compiled_pairs)

let test_compiled_equivalent_zx () =
  List.iter
    (fun (name, g, g') ->
      check_outcome (name ^ " zx") Equivalence.Equivalent Qcec.Zx g g')
    (Lazy.force compiled_pairs)

let test_compiled_with_layout () =
  let rng = Rng.make ~seed:17 in
  let arch = Architecture.ring 6 in
  let g = qft 4 in
  let layout = Compile.spread_layout arch rng in
  let g' = Compile.run ~initial_layout:layout arch g in
  check_outcome "layouted compile dd" Equivalence.Equivalent Qcec.Alternating g g';
  check_outcome "layouted compile zx" Equivalence.Equivalent Qcec.Zx g g'

let test_compiled_gate_missing () =
  let g = ghz 5 in
  let g' = Compile.run (Architecture.linear 7) g in
  let broken = remove_gate ~seed:23 g' in
  check_outcome "missing gate dd" Equivalence.Not_equivalent Qcec.Combined g broken;
  let r = Qcec.check ~strategy:Qcec.Zx g broken in
  Alcotest.(check bool)
    "zx does not claim equivalence" true
    (r.Equivalence.outcome <> Equivalence.Equivalent)

let test_compiled_flipped_cnot () =
  let g = ghz 5 in
  let g' = Compile.run (Architecture.linear 7) g in
  let broken = flip_cnot ~seed:23 g' in
  check_outcome "flipped cnot dd" Equivalence.Not_equivalent Qcec.Combined g broken;
  let r = Qcec.check ~strategy:Qcec.Zx g broken in
  Alcotest.(check bool)
    "zx does not claim equivalence" true
    (r.Equivalence.outcome <> Equivalence.Equivalent)

(* ------------------------------------------------ Optimisation use case *)

let test_optimized_equivalent () =
  let g = grover ~seed:4 3 in
  let lowered = Decompose.to_cx_basis (Decompose.elementary g) in
  let g' = Optimize.optimize lowered in
  Alcotest.(check bool) "optimizer did something" true
    (Circuit.gate_count g' < Circuit.gate_count lowered);
  check_outcome "optimized dd" Equivalence.Equivalent Qcec.Alternating g g';
  check_outcome "optimized zx" Equivalence.Equivalent Qcec.Zx g g'

let test_optimized_error_detected () =
  let g = qft 4 in
  let g' = Optimize.optimize (Decompose.to_cx_basis g) in
  let broken = remove_gate ~seed:5 g' in
  check_outcome "optimized broken" Equivalence.Not_equivalent Qcec.Combined g broken

(* --------------------------------------------------------------- Details *)

let test_global_phase_ignored () =
  (* Rz(pi) vs Z differ by the global phase i. *)
  let a = Circuit.rz (Circuit.create 1) Phase.pi 0 in
  let b = Circuit.z (Circuit.create 1) 0 in
  List.iter
    (fun s ->
      check_outcome ("phase: " ^ Qcec.strategy_to_string s) Equivalence.Equivalent s a b)
    all_strategies

let test_permuted_outputs_not_equivalent () =
  (* A swap is not the identity unless declared in the output perm. *)
  let a = Circuit.create 2 in
  let b = Circuit.swap (Circuit.create 2) 0 1 in
  check_outcome "undeclared swap dd" Equivalence.Not_equivalent Qcec.Alternating a b;
  check_outcome "undeclared swap zx" Equivalence.Not_equivalent Qcec.Zx a b;
  let b_declared = Circuit.with_output_perm b (Some (Perm.of_array [| 1; 0 |])) in
  check_outcome "declared swap dd" Equivalence.Equivalent Qcec.Alternating a b_declared;
  check_outcome "declared swap zx" Equivalence.Equivalent Qcec.Zx a b_declared

let test_width_mismatch () =
  let a = ghz 3 in
  let b = Circuit.embed (ghz 3) ~num_qubits:5 in
  check_outcome "widths aligned" Equivalence.Equivalent Qcec.Alternating a b

let test_timeout () =
  let g = random_reversible ~seed:3 ~gates:120 10 in
  let g' = random_reversible ~seed:4 ~gates:120 10 in
  let r = Qcec.check ~strategy:Qcec.Alternating ~timeout:0.0 g g' in
  Alcotest.check outcome_testable "times out" Equivalence.Timed_out r.Equivalence.outcome

let test_approximate_check () =
  (* A tiny extra rotation: not exactly equivalent, but within fidelity
     0.999 (the approximate notion of the paper's reference [16]). *)
  let c = ghz 4 in
  let perturbed = Circuit.p c (Phase.of_float 1e-3) 2 in
  let exact = Qcec.check ~strategy:Qcec.Alternating c perturbed in
  Alcotest.check outcome_testable "exactly: not equivalent" Equivalence.Not_equivalent
    exact.Equivalence.outcome;
  let approx, fidelity = Dd_checker.check_approximate ~threshold:0.999 c perturbed in
  Alcotest.check outcome_testable "approximately: equivalent" Equivalence.Equivalent
    approx.Equivalence.outcome;
  Alcotest.(check bool) "fidelity just below 1" true (fidelity < 1.0 && fidelity > 0.999);
  let strict, _ = Dd_checker.check_approximate ~threshold:0.9999999999 c perturbed in
  Alcotest.check outcome_testable "strict threshold refuses" Equivalence.Not_equivalent
    strict.Equivalence.outcome

let test_lookahead_scheme () =
  let g = qft 5 in
  let g' = Compile.run (Architecture.ring 6) g in
  let r = Qcec.check ~strategy:Qcec.Alternating ~scheme:Dd_scheme.Lookahead g g' in
  Alcotest.check outcome_testable "lookahead proves equivalence" Equivalence.Equivalent
    r.Equivalence.outcome;
  let broken = remove_gate ~seed:4 g' in
  let r2 = Qcec.check ~strategy:Qcec.Alternating ~scheme:Dd_scheme.Lookahead g broken in
  Alcotest.(check bool) "lookahead does not prove broken" true
    (r2.Equivalence.outcome <> Equivalence.Equivalent)

let test_report_fields () =
  let c = ghz 3 in
  let r = Qcec.check ~strategy:Qcec.Alternating c c in
  Alcotest.(check bool) "peak positive" true (r.Equivalence.peak_size > 0);
  Alcotest.(check int) "identity final size" 3 r.Equivalence.final_size;
  Alcotest.(check bool) "elapsed sane" true (r.Equivalence.elapsed >= 0.0)

let prop_random_equivalent_pairs =
  qtest ~count:25 "qcec: compile-then-check proves equivalence"
    QCheck.(make ~print:string_of_int Gen.int)
    (fun seed ->
      let c = random_layout_circuit seed in
      let c = Circuit.with_initial_layout (Circuit.with_output_perm c None) None in
      let arch = Architecture.linear (Circuit.num_qubits c + 1) in
      let compiled = Compile.run arch c in
      let r = Qcec.check ~strategy:Qcec.Alternating c compiled in
      let z = Qcec.check ~strategy:Qcec.Zx c compiled in
      r.Equivalence.outcome = Equivalence.Equivalent
      && z.Equivalence.outcome <> Equivalence.Not_equivalent)

let prop_random_error_detected =
  qtest ~count:25 "qcec: injected errors never verify as equivalent"
    QCheck.(make ~print:string_of_int Gen.int)
    (fun seed ->
      let c = random_layout_circuit seed in
      let c = Circuit.with_initial_layout (Circuit.with_output_perm c None) None in
      QCheck.assume (Circuit.gate_count c > 0);
      let broken = remove_gate ~seed c in
      (* Removing a gate may keep the unitary (e.g. one of two identical
         CX); compare against the dense truth. *)
      let truly_equal = Unitary.equivalent c broken in
      let r = Qcec.check ~strategy:Qcec.Combined ~seed c broken in
      if truly_equal then r.Equivalence.outcome = Equivalence.Equivalent
      else r.Equivalence.outcome = Equivalence.Not_equivalent)

let suite =
  [
    prop_flatten_matches_effective;
    Alcotest.test_case "flatten absorbs swaps" `Quick test_flatten_absorbs_swaps;
    Alcotest.test_case "flatten reconstructs cx swaps" `Quick test_flatten_reconstructs_cx_swaps;
    Alcotest.test_case "identical circuits" `Quick test_identical_circuits;
    Alcotest.test_case "trivially different" `Quick test_trivially_different;
    Alcotest.test_case "simulation refutes" `Quick test_simulation_refutes;
    Alcotest.test_case "simulation gives no proof" `Quick test_simulation_no_proof;
    Alcotest.test_case "compiled pairs (dd)" `Quick test_compiled_equivalent_dd;
    Alcotest.test_case "compiled pairs (zx)" `Quick test_compiled_equivalent_zx;
    Alcotest.test_case "compiled with random layout" `Quick test_compiled_with_layout;
    Alcotest.test_case "compiled, gate missing" `Quick test_compiled_gate_missing;
    Alcotest.test_case "compiled, flipped cnot" `Quick test_compiled_flipped_cnot;
    Alcotest.test_case "optimized circuits equivalent" `Quick test_optimized_equivalent;
    Alcotest.test_case "optimized circuits, error" `Quick test_optimized_error_detected;
    Alcotest.test_case "global phase ignored" `Quick test_global_phase_ignored;
    Alcotest.test_case "output permutations" `Quick test_permuted_outputs_not_equivalent;
    Alcotest.test_case "width mismatch" `Quick test_width_mismatch;
    Alcotest.test_case "timeout" `Quick test_timeout;
    Alcotest.test_case "approximate equivalence" `Quick test_approximate_check;
    Alcotest.test_case "lookahead scheme" `Quick test_lookahead_scheme;
    Alcotest.test_case "report fields" `Quick test_report_fields;
    prop_random_equivalent_pairs;
    prop_random_error_detected;
  ]
