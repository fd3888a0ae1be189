(* Regression tests for bugs found during development, plus edge cases of
   the newer rewrite rules. *)

open Oqec_base
open Oqec_circuit
open Oqec_zx
open Oqec_qcec

(* fidelity_to_identity divided by [1 lsl n], which overflows native ints
   beyond 62 qubits — a near-identity 65-qubit miter then reported a
   bogus fidelity and verified as equivalent. *)
let test_wide_register_fidelity () =
  let module Dd = Oqec_dd.Dd in
  let module Dd_circuit = Oqec_dd.Dd_circuit in
  let n = 65 in
  let pkg = Dd.create () in
  let id = Dd.identity pkg n in
  Alcotest.(check (float 1e-9)) "identity fidelity" 1.0 (Dd.fidelity_to_identity ~n id);
  (* A small but non-negligible rotation must not look like the identity. *)
  let tiny = Circuit.p (Circuit.create n) (Phase.of_pi_fraction 1 512) 40 in
  let dd = Dd_circuit.of_circuit pkg tiny in
  Alcotest.(check bool) "tiny rotation detected" true
    (Dd.fidelity_to_identity ~n dd < 1.0 -. 1e-9);
  Alcotest.(check bool) "not the identity node" false (Dd.is_identity pkg n dd)

let test_wide_register_check () =
  let n = 65 in
  let g = Circuit.create n in
  let g' = Circuit.p (Circuit.create n) (Phase.of_pi_fraction 1 512) 40 in
  let r = Qcec.check ~strategy:Qcec.Alternating g g' in
  Alcotest.(check bool) "non-equivalence detected at width 65" true
    (r.Equivalence.outcome = Equivalence.Not_equivalent)

(* kets_bits must agree with kets on narrow registers. *)
let test_kets_bits () =
  let module Dd = Oqec_dd.Dd in
  let module Dd_export = Oqec_dd.Dd_export in
  let pkg = Dd.create () in
  let a = Dd.kets pkg 4 11 in
  let b = Dd.kets_bits pkg 4 (fun q -> (11 lsr q) land 1 = 1) in
  Alcotest.(check bool) "same node" true (a.Oqec_dd.Dd.node == b.Oqec_dd.Dd.node)

(* The Pauli-leaf (state copy) rule must preserve semantics. *)
let test_pauli_leaf_rule () =
  let check_case leaf_phase =
    (* Build: in - v -h- w -h- x - out with a leaf hanging off the
       interior spider w. *)
    let g = Zx_graph.create () in
    let inp = Zx_graph.add_vertex g (Zx_graph.B_in 0) ~phase:Phase.zero in
    let out = Zx_graph.add_vertex g (Zx_graph.B_out 0) ~phase:Phase.zero in
    let v = Zx_graph.add_vertex g Zx_graph.Z ~phase:Phase.quarter_pi in
    let w = Zx_graph.add_vertex g Zx_graph.Z ~phase:(Phase.of_float 0.3) in
    let x = Zx_graph.add_vertex g Zx_graph.Z ~phase:Phase.half_pi in
    let leaf = Zx_graph.add_vertex g Zx_graph.Z ~phase:leaf_phase in
    Zx_graph.add_edge g inp v Zx_graph.Simple;
    Zx_graph.add_edge g v w Zx_graph.Had;
    Zx_graph.add_edge g w x Zx_graph.Had;
    Zx_graph.add_edge g x out Zx_graph.Simple;
    Zx_graph.add_edge g w leaf Zx_graph.Had;
    let before = Zx_tensor.matrix g in
    let n = Zx_simplify.pauli_leaf_simp g in
    Alcotest.(check bool) "rule fired" true (n > 0);
    Alcotest.(check bool)
      (Format.asprintf "semantics preserved (leaf %a)" Phase.pp leaf_phase)
      true
      (Zx_tensor.proportional before (Zx_tensor.matrix g))
  in
  check_case Phase.zero;
  check_case Phase.pi

(* Gadget axis normalisation (pi axis = 0 axis with negated leaf). *)
let test_gadget_axis_normalisation () =
  let g = Zx_graph.create () in
  let inp = Zx_graph.add_vertex g (Zx_graph.B_in 0) ~phase:Phase.zero in
  let out = Zx_graph.add_vertex g (Zx_graph.B_out 0) ~phase:Phase.zero in
  let w = Zx_graph.add_vertex g Zx_graph.Z ~phase:Phase.zero in
  let axis = Zx_graph.add_vertex g Zx_graph.Z ~phase:Phase.pi in
  let leaf = Zx_graph.add_vertex g Zx_graph.Z ~phase:Phase.quarter_pi in
  Zx_graph.add_edge g inp w Zx_graph.Simple;
  Zx_graph.add_edge g w out Zx_graph.Simple;
  Zx_graph.add_edge g w axis Zx_graph.Had;
  Zx_graph.add_edge g axis leaf Zx_graph.Had;
  let before = Zx_tensor.matrix g in
  ignore (Zx_simplify.gadget_simp g);
  Alcotest.(check bool) "axis now zero" true (Phase.is_zero (Zx_graph.phase g axis));
  Alcotest.(check bool) "leaf negated" true
    (Phase.equal (Zx_graph.phase g leaf) (Phase.neg Phase.quarter_pi));
  Alcotest.(check bool) "semantics preserved" true
    (Zx_tensor.proportional before (Zx_tensor.matrix g))

(* Gadget merging: two T-gadgets on the same support fuse into an S. *)
let test_gadget_merge_semantics () =
  let build () =
    let g = Zx_graph.create () in
    let inp = Zx_graph.add_vertex g (Zx_graph.B_in 0) ~phase:Phase.zero in
    let out = Zx_graph.add_vertex g (Zx_graph.B_out 0) ~phase:Phase.zero in
    let w1 = Zx_graph.add_vertex g Zx_graph.Z ~phase:Phase.zero in
    let w2 = Zx_graph.add_vertex g Zx_graph.Z ~phase:Phase.zero in
    Zx_graph.add_edge g inp w1 Zx_graph.Simple;
    Zx_graph.add_edge g w1 w2 Zx_graph.Had;
    Zx_graph.add_edge g w2 out Zx_graph.Simple;
    let gadget phase =
      let axis = Zx_graph.add_vertex g Zx_graph.Z ~phase:Phase.zero in
      let leaf = Zx_graph.add_vertex g Zx_graph.Z ~phase in
      Zx_graph.add_edge g axis leaf Zx_graph.Had;
      Zx_graph.add_edge_smart g axis w1 Zx_graph.Had;
      Zx_graph.add_edge_smart g axis w2 Zx_graph.Had
    in
    gadget Phase.quarter_pi;
    gadget Phase.quarter_pi;
    g
  in
  let g = build () in
  let before = Zx_tensor.matrix g in
  let merged = Zx_simplify.gadget_simp g in
  Alcotest.(check bool) "merged" true (merged > 0);
  Alcotest.(check bool) "semantics preserved" true
    (Zx_tensor.proportional before (Zx_tensor.matrix g))

(* The miter must be lowered before inversion so it telescopes; a
   three-control gate (with its recursive decomposition) exercises it. *)
let test_c3z_self_miter_reduces () =
  let c3z = Circuit.add (Circuit.create 4) (Circuit.Ctrl ([ 0; 1; 2 ], Gate.Z, 3)) in
  let d = Zx_circuit.of_miter c3z c3z in
  ignore (Zx_simplify.full_reduce d);
  match Zx_simplify.extract_permutation d with
  | Some p -> Alcotest.(check bool) "identity" true (Perm.is_identity p)
  | None -> Alcotest.fail "c3z self-miter did not reduce"

(* Phase gadgets must never be pivoted (that loops); the paper-level
   observable is simply that full_reduce terminates quickly on a
   T-heavy miter. *)
let test_gadget_pivot_termination () =
  let c =
    Circuit.add (Circuit.create 4) (Circuit.Ctrl ([ 0; 1; 2 ], Gate.X, 3))
  in
  let c = Circuit.t_gate (Circuit.h c 2) 1 in
  let broken = Circuit.t_gate c 0 in
  let d = Zx_circuit.of_miter c broken in
  let t0 = Mclock.now () in
  let finished = Zx_simplify.full_reduce d in
  Alcotest.(check bool) "terminates" true finished;
  Alcotest.(check bool) "fast" true (Mclock.elapsed_since t0 < 5.0)

(* QASM layout comments: malformed ones are ignored, wrong-size ones too. *)
let test_layout_comment_robustness () =
  let src = "// oqec:layout 1,0\nOPENQASM 2.0;\nqreg q[3];\nh q[0];\n" in
  let c = (Oqec_qasm.Qasm.parse_string src).Oqec_qasm.Qasm.circuit in
  Alcotest.(check bool) "wrong size ignored" true (Circuit.initial_layout c = None);
  let src2 = "// oqec:layout banana\nOPENQASM 2.0;\nqreg q[2];\nh q[0];\n" in
  let c2 = (Oqec_qasm.Qasm.parse_string src2).Oqec_qasm.Qasm.circuit in
  Alcotest.(check bool) "garbage ignored" true (Circuit.initial_layout c2 = None);
  let src3 = "// oqec:layout 1,0\nOPENQASM 2.0;\nqreg q[2];\nh q[0];\n" in
  let c3 = (Oqec_qasm.Qasm.parse_string src3).Oqec_qasm.Qasm.circuit in
  match Circuit.initial_layout c3 with
  | Some p -> Alcotest.(check bool) "parsed" true (Perm.equal p (Perm.of_array [| 1; 0 |]))
  | None -> Alcotest.fail "layout comment lost"

(* equal_up_to_phase must anchor the phase at one fixed position
   (regression: picking each matrix's own largest entry broke on ties). *)
let test_phase_anchor () =
  let m = Dmatrix.make 2 2 (fun i j -> if i = j then Cx.e_i (0.3 *. float_of_int (i + 1)) else Cx.zero) in
  let m' = Dmatrix.scale (Cx.e_i 1.234) m in
  Alcotest.(check bool) "diagonal phases" true (Dmatrix.equal_up_to_phase m m')

(* Controlled rotations invert only up to a controlled sign through
   inverse_op (angles are modulo 2*pi, rotations have period 4*pi); the
   checkers must lower them before inverting, and the optimizer must not
   cancel such pairs. *)
let test_controlled_rotation_inversion () =
  let cry = Circuit.add (Circuit.create 2) (Circuit.Ctrl ([ 0 ], Gate.Ry (Phase.of_float 0.7), 1)) in
  (* Raw inverse_op is NOT the exact inverse... *)
  let naive = Circuit.add cry (Circuit.inverse_op (List.hd (Circuit.ops cry))) in
  Alcotest.(check bool) "naive inversion leaves a controlled sign" false
    (Dmatrix.equal_up_to_phase ~tol:1e-8 (Unitary.unitary naive) (Dmatrix.identity 4));
  (* ...but the checkers handle it by lowering first. *)
  let w = Oqec_workloads.Workloads.w_state 4 in
  let w' = Oqec_compile.Compile.run (Oqec_compile.Architecture.linear 5) w in
  Alcotest.(check bool) "dense ground truth" true
    (Unitary.equivalent (Circuit.embed w ~num_qubits:5) w');
  let r = Qcec.check ~strategy:Qcec.Alternating w w' in
  Alcotest.(check bool) "alternating agrees" true
    (r.Equivalence.outcome = Equivalence.Equivalent)

let test_optimizer_no_controlled_rotation_cancel () =
  let a = Phase.of_float 0.7 in
  let c = Circuit.create 2 in
  let c = Circuit.add c (Circuit.Ctrl ([ 0 ], Gate.Ry a, 1)) in
  let c = Circuit.add c (Circuit.Ctrl ([ 0 ], Gate.Ry (Phase.neg a), 1)) in
  let o = Oqec_compile.Optimize.optimize c in
  (* Cancelling would change the unitary by a controlled sign. *)
  Alcotest.(check bool) "semantics preserved" true
    (Dmatrix.equal_up_to_phase ~tol:1e-8 (Unitary.unitary c) (Unitary.unitary o))

(* Graph-like full_reduce is incomplete: on these generated urf pairs
   (5 qubits; the optimised circuit is equivalent to its source) it can
   stop at no information.  It must never refute them; each outcome is
   pinned so a change of rewrite scheduling shows up here.  The pair
   40/339308 is decided since worklist dirtying is batched per rewrite,
   which changes the order candidates are visited in. *)
let test_stuck_urf_seeds () =
  let open Equivalence in
  List.iter
    (fun (gates, seed, expected) ->
      let g = Oqec_workloads.Workloads.random_reversible ~seed ~gates 5 in
      let lowered = Decompose.to_cx_basis ~keep_swaps:false (Decompose.elementary g) in
      let o = Oqec_compile.Optimize.optimize lowered in
      let name = Printf.sprintf "urf %d gates seed %d" gates seed in
      Alcotest.(check bool) (name ^ ": dense ground truth") true (Unitary.equivalent g o);
      let r = Qcec.check ~strategy:Qcec.Zx g o in
      Alcotest.(check bool) (name ^ ": never refuted") true (r.outcome <> Not_equivalent);
      Alcotest.(check string)
        name (outcome_to_string expected) (outcome_to_string r.outcome))
    [
      (40, 225090, No_information);
      (40, 339308, Equivalent);
      (40, 347662, No_information);
      (50, 654882, No_information);
      (50, 70322, No_information);
      (60, 149090, No_information);
      (60, 617383, No_information);
    ]

let suite =
  [
    Alcotest.test_case "controlled rotation inversion" `Quick
      test_controlled_rotation_inversion;
    Alcotest.test_case "optimizer skips controlled-rotation pairs" `Quick
      test_optimizer_no_controlled_rotation_cancel;
    Alcotest.test_case "65-qubit fidelity (int overflow)" `Quick test_wide_register_fidelity;
    Alcotest.test_case "65-qubit non-equivalence" `Quick test_wide_register_check;
    Alcotest.test_case "kets_bits consistency" `Quick test_kets_bits;
    Alcotest.test_case "pauli leaf rule" `Quick test_pauli_leaf_rule;
    Alcotest.test_case "gadget axis normalisation" `Quick test_gadget_axis_normalisation;
    Alcotest.test_case "gadget merge semantics" `Quick test_gadget_merge_semantics;
    Alcotest.test_case "c3z self-miter telescopes" `Quick test_c3z_self_miter_reduces;
    Alcotest.test_case "gadget pivot terminates" `Quick test_gadget_pivot_termination;
    Alcotest.test_case "layout comment robustness" `Quick test_layout_comment_robustness;
    Alcotest.test_case "phase anchoring in equal_up_to_phase" `Quick test_phase_anchor;
    Alcotest.test_case "stuck urf seeds never refuted" `Quick test_stuck_urf_seeds;
  ]
