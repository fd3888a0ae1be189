(* ZX-calculus validation: the translation and every rewrite pass are
   checked against the brute-force tensor semantics (up to scalar). *)

open Oqec_base
open Oqec_circuit
open Oqec_zx
open Helpers

let circuit_matrix c = Unitary.unitary c
let zx_matrix g = Zx_tensor.matrix g

let check_translation name c =
  let g = Zx_circuit.of_circuit c in
  Alcotest.(check bool)
    (name ^ ": diagram matches circuit")
    true
    (Zx_tensor.proportional (circuit_matrix c) (zx_matrix g))

let test_translation_single_gates () =
  let gates =
    [
      Gate.I; Gate.X; Gate.Y; Gate.Z; Gate.H; Gate.S; Gate.Sdg; Gate.T; Gate.Tdg;
      Gate.Sx; Gate.Sxdg;
      Gate.Rx Phase.quarter_pi;
      Gate.Ry (Phase.of_pi_fraction 3 8);
      Gate.Rz (Phase.of_float 0.7);
      Gate.P Phase.half_pi;
      Gate.U (Phase.of_float 0.4, Phase.of_float 1.1, Phase.quarter_pi);
    ]
  in
  List.iter
    (fun g ->
      check_translation (Format.asprintf "%a" Gate.pp g)
        (Circuit.gate (Circuit.create 1) g 0))
    gates

let test_translation_two_qubit () =
  check_translation "cx" (Circuit.cx (Circuit.create 2) 0 1);
  check_translation "cx reversed" (Circuit.cx (Circuit.create 2) 1 0);
  check_translation "cz" (Circuit.cz (Circuit.create 2) 0 1);
  check_translation "cp" (Circuit.cp (Circuit.create 2) Phase.quarter_pi 0 1);
  check_translation "swap" (Circuit.swap (Circuit.create 2) 0 1);
  check_translation "h-cx-h" (Circuit.h (Circuit.cx (Circuit.h (Circuit.create 2) 1) 0 1) 1)

let test_translation_ghz () =
  let c = Circuit.cx (Circuit.cx (Circuit.h (Circuit.create 3) 0) 0 1) 0 2 in
  check_translation "ghz" c

(* Random small circuits for rewrite validation. *)
let random_circuit seed ~n ~len =
  let rng = Rng.make ~seed in
  let c = ref (Circuit.create n) in
  for _ = 1 to len do
    let q = Rng.int rng n in
    let q2 = (q + 1 + Rng.int rng (max 1 (n - 1))) mod n in
    match Rng.int rng 8 with
    | 0 -> c := Circuit.h !c q
    | 1 -> c := Circuit.t_gate !c q
    | 2 -> c := Circuit.s !c q
    | 3 -> c := Circuit.x !c q
    | 4 -> c := Circuit.rz !c (Phase.of_pi_fraction (Rng.int rng 16) 8) q
    | 5 | 6 -> if n > 1 then c := Circuit.cx !c q q2
    | _ -> if n > 1 then c := Circuit.cz !c q q2
  done;
  !c

let seed_arb = QCheck.(make ~print:string_of_int Gen.int)

let prop_translation =
  qtest ~count:60 "zx: translation preserves semantics" seed_arb (fun seed ->
      let n = 1 + (abs seed mod 3) in
      let c = random_circuit seed ~n ~len:6 in
      Zx_tensor.proportional (circuit_matrix c) (zx_matrix (Zx_circuit.of_circuit c)))

let check_pass_preserves name pass =
  qtest ~count:60 (Printf.sprintf "zx: %s preserves semantics" name) seed_arb
    (fun seed ->
      let n = 1 + (abs seed mod 3) in
      let c = random_circuit seed ~n ~len:6 in
      let g = Zx_circuit.of_circuit c in
      let before = zx_matrix g in
      pass g;
      Zx_tensor.proportional before (zx_matrix g))

let prop_spider = check_pass_preserves "spider fusion" (fun g -> ignore (Zx_simplify.spider_simp g))

let prop_to_gh = check_pass_preserves "colour change" Zx_simplify.to_gh

let prop_id =
  check_pass_preserves "identity removal" (fun g ->
      ignore (Zx_simplify.spider_simp g);
      Zx_simplify.to_gh g;
      ignore (Zx_simplify.id_simp g))

let prop_interior_clifford =
  check_pass_preserves "interior clifford simp" (fun g ->
      ignore (Zx_simplify.interior_clifford_simp g))

let prop_clifford =
  check_pass_preserves "clifford simp" (fun g -> ignore (Zx_simplify.clifford_simp g))

let prop_full_reduce =
  check_pass_preserves "full reduce" (fun g -> ignore (Zx_simplify.full_reduce g))

let prop_full_reduce_never_grows =
  qtest ~count:60 "zx: full reduce never grows the spider count" seed_arb (fun seed ->
      let n = 1 + (abs seed mod 3) in
      let c = random_circuit seed ~n ~len:8 in
      let g = Zx_circuit.of_circuit c in
      let before = Zx_graph.spider_count g in
      ignore (Zx_simplify.full_reduce g);
      Zx_graph.spider_count g <= before)

(* The headline behaviour: the miter of a circuit with itself reduces to
   bare wires with the identity permutation. *)
let prop_miter_reduces_to_identity =
  qtest ~count:60 "zx: miter of c with c reduces to identity wires" seed_arb
    (fun seed ->
      let n = 1 + (abs seed mod 3) in
      let c = random_circuit seed ~n ~len:8 in
      let g = Zx_circuit.of_miter c c in
      ignore (Zx_simplify.full_reduce g);
      match Zx_simplify.extract_permutation g with
      | Some p -> Perm.is_identity p
      | None -> false)

let test_swap_equals_three_cnots () =
  (* Example 6 / Eq. (2) of the paper. *)
  let sw = Circuit.swap (Circuit.create 2) 0 1 in
  let three =
    Circuit.cx (Circuit.cx (Circuit.cx (Circuit.create 2) 0 1) 1 0) 0 1
  in
  let g = Zx_circuit.of_miter sw three in
  ignore (Zx_simplify.full_reduce g);
  match Zx_simplify.extract_permutation g with
  | Some p -> Alcotest.(check bool) "identity" true (Perm.is_identity p)
  | None -> Alcotest.fail "did not reduce to wires"

let test_swapped_circuit_perm () =
  (* A bare SWAP against the empty circuit reduces to crossed wires. *)
  let sw = Circuit.swap (Circuit.create 2) 0 1 in
  let empty = Circuit.create 2 in
  let g = Zx_circuit.of_miter empty sw in
  ignore (Zx_simplify.full_reduce g);
  match Zx_simplify.extract_permutation g with
  | Some p -> Alcotest.(check bool) "transposition" true (Perm.equal p (Perm.of_array [| 1; 0 |]))
  | None -> Alcotest.fail "did not reduce to wires"

let test_broken_miter_detected () =
  let c = random_circuit 123 ~n:3 ~len:8 in
  let broken = Circuit.t_gate c 1 in
  let g = Zx_circuit.of_miter c broken in
  ignore (Zx_simplify.full_reduce g);
  (match Zx_simplify.extract_permutation g with
  | Some p -> Alcotest.(check bool) "not the identity if wires" false (Perm.is_identity p)
  | None -> ());
  (* An injected non-Clifford error must leave spiders behind. *)
  Alcotest.(check bool) "spiders remain" true (Zx_graph.spider_count g > 0)

let test_hadamard_pair_reduces () =
  let c = Circuit.h (Circuit.h (Circuit.create 1) 0) 0 in
  let g = Zx_circuit.of_circuit c in
  ignore (Zx_simplify.full_reduce g);
  match Zx_simplify.extract_permutation g with
  | Some p -> Alcotest.(check bool) "wire" true (Perm.is_identity p)
  | None -> Alcotest.fail "H H did not cancel"

let test_single_hadamard_not_identity () =
  let c = Circuit.h (Circuit.create 1) 0 in
  let g = Zx_circuit.of_circuit c in
  ignore (Zx_simplify.full_reduce g);
  Alcotest.(check bool) "no permutation" true (Zx_simplify.extract_permutation g = None)

let test_dot_exports () =
  let c = Circuit.cx (Circuit.h (Circuit.create 2) 0) 0 1 in
  let dot = Zx_export.to_dot (Zx_circuit.of_circuit c) in
  let contains needle s =
    let rec go i =
      i + String.length needle <= String.length s
      && (String.sub s i (String.length needle) = needle || go (i + 1))
    in
    go 0
  in
  Alcotest.(check bool) "graph header" true (contains "graph zx" dot);
  Alcotest.(check bool) "green spider" true (contains "#ccffcc" dot);
  Alcotest.(check bool) "red spider" true (contains "#ffcccc" dot);
  Alcotest.(check bool) "boundary" true (contains "in0" dot);
  (* DD dot export sanity, in the same breath. *)
  let pkg = Oqec_dd.Dd.create () in
  let dd = Oqec_dd.Dd_circuit.of_circuit pkg c in
  let ddot = Oqec_dd.Dd_export.to_dot pkg dd in
  Alcotest.(check bool) "dd digraph" true (contains "digraph dd" ddot);
  Alcotest.(check bool) "dd terminal" true (contains "label=\"1\"" ddot)

let test_spider_count_measure () =
  let c = random_circuit 7 ~n:3 ~len:10 in
  let g = Zx_circuit.of_circuit c in
  Alcotest.(check bool) "has spiders" true (Zx_graph.spider_count g > 0);
  Alcotest.(check int) "boundaries excluded" (Zx_graph.num_vertices g - 6)
    (Zx_graph.spider_count g)

let suite =
  [
    Alcotest.test_case "single-gate translations" `Quick test_translation_single_gates;
    Alcotest.test_case "two-qubit translations" `Quick test_translation_two_qubit;
    Alcotest.test_case "ghz translation" `Quick test_translation_ghz;
    prop_translation;
    prop_spider;
    prop_to_gh;
    prop_id;
    prop_interior_clifford;
    prop_clifford;
    prop_full_reduce;
    prop_full_reduce_never_grows;
    prop_miter_reduces_to_identity;
    Alcotest.test_case "swap = 3 cnots (ex. 6)" `Quick test_swap_equals_three_cnots;
    Alcotest.test_case "bare swap leaves a transposition" `Quick test_swapped_circuit_perm;
    Alcotest.test_case "broken miter detected" `Quick test_broken_miter_detected;
    Alcotest.test_case "h h cancels" `Quick test_hadamard_pair_reduces;
    Alcotest.test_case "single h is not a wire" `Quick test_single_hadamard_not_identity;
    Alcotest.test_case "spider count" `Quick test_spider_count_measure;
    Alcotest.test_case "dot exports" `Quick test_dot_exports;
  ]
