(* Prepared pairs: one align+flatten per check, idle wires stripped.
   Stripping must never change a verdict.  Fixed-seed fuzz pairs are
   embedded into wider registers and checked under every strategy
   against the unembedded pair, against the dense reference, and
   against a dense replay of the full-width stimulus stream. *)

open Oqec_base
open Oqec_circuit
open Oqec_qcec
module Fuzz = Oqec_fuzz.Fuzz
module Qasm = Oqec_qasm.Qasm
module Workloads = Oqec_workloads.Workloads
module Compile = Oqec_compile.Compile
module Architecture = Oqec_compile.Architecture

let strategies =
  Qcec.[ Reference; Alternating; Simulation; Zx; Combined; Clifford; Portfolio ]

let outcome_testable =
  Alcotest.testable
    (fun ppf o -> Format.pp_print_string ppf (Equivalence.outcome_to_string o))
    ( = )

(* [relabel perm c] moves every wire [w] of [c] to [perm.(w)], layout
   metadata included: logical [perm.(l)] starts (and ends) where [l]
   did, on wire [perm.(layout l)]. *)
let relabel perm c =
  let conj p =
    let a = Perm.to_array p in
    let b = Array.make (Array.length a) 0 in
    Array.iteri (fun l w -> b.(perm.(l)) <- perm.(w)) a;
    Perm.of_array b
  in
  let c' = Circuit.map_qubits (fun w -> perm.(w)) c in
  let c' = Circuit.with_initial_layout c' (Option.map conj (Circuit.initial_layout c)) in
  Circuit.with_output_perm c' (Option.map conj (Circuit.output_perm c))

(* [widen c w] pads [c] to [w] wires, extending layout metadata by the
   identity on the new wires. *)
let widen c w =
  let ext p =
    let a = Perm.to_array p in
    Perm.of_array (Array.init w (fun i -> if i < Array.length a then a.(i) else i))
  in
  let c' = Circuit.embed c ~num_qubits:w in
  let c' = Circuit.with_initial_layout c' (Option.map ext (Circuit.initial_layout c)) in
  Circuit.with_output_perm c' (Option.map ext (Circuit.output_perm c))

(* An equivalent rewrite of [c] with an initial layout [l] and the
   matching output permutation: gates move to wire [l w], logical [w]
   starts and ends there. *)
let with_layout l c =
  let c' = Circuit.map_qubits (Perm.apply l) c in
  Circuit.with_output_perm (Circuit.with_initial_layout c' (Some l)) (Some l)

(* Dense replay of stimulus [i]: the full-width basis state through both
   flattened circuits, as [Fuzz]'s corpus replay does. *)
let dense_fidelity ~seed ~index a b =
  let a, b = Flatten.align a b in
  let a = Flatten.flatten a and b = Flatten.flatten b in
  let n = Circuit.num_qubits a in
  let bits = Sim_checker.stimulus_bits ~seed ~index n in
  let prep = ref (Circuit.create n) in
  Array.iteri (fun q bit -> if bit then prep := Circuit.x !prep q) bits;
  let va = Unitary.basis_state n 0 in
  Unitary.apply_to_vector !prep va;
  let vb = Array.copy va in
  Unitary.apply_to_vector a va;
  Unitary.apply_to_vector b vb;
  let dot = ref Cx.zero in
  Array.iteri (fun i x -> dot := Cx.add !dot (Cx.mul (Cx.conj x) vb.(i))) va;
  Cx.mag !dot

(* The stimulus index a note names, if any. *)
let noted_stimulus note =
  match String.index_opt note '#' with
  | None -> None
  | Some i ->
      let j = ref (i + 1) in
      while !j < String.length note && note.[!j] >= '0' && note.[!j] <= '9' do
        incr j
      done;
      Some (int_of_string (String.sub note (i + 1) (!j - i - 1)))

let test_embedded_fuzz_pairs () =
  let config = { Fuzz.default_config with max_qubits = 5; seed = 26 } in
  let rng = Rng.make ~seed:2026 in
  let layouts = ref 0 and interleaved = ref 0 and refuted_by_stimulus = ref 0 in
  for i = 0 to 99 do
    let case = Fuzz.generate_case config i in
    let n = max (Circuit.num_qubits case.left) (Circuit.num_qubits case.right) in
    let left = widen case.left n and right = widen case.right n in
    (* A third of the right sides get an initial layout and output
       permutation (unless a mutation already gave them metadata). *)
    let right =
      if
        i mod 3 = 0
        && Circuit.initial_layout right = None
        && Circuit.output_perm right = None
      then begin
        incr layouts;
        with_layout (Perm.random (Rng.int rng) n) right
      end
      else right
    in
    let w = n + 1 + Rng.int rng 3 in
    (* Even cases keep the original wires in place under the idle ones;
       odd cases scatter them over the wider register. *)
    let perm =
      if i mod 2 = 0 then Array.init w Fun.id
      else begin
        incr interleaved;
        Perm.to_array (Perm.random (Rng.int rng) w)
      end
    in
    let wide_left = relabel perm (widen left w)
    and wide_right = relabel perm (widen right w) in
    let truth = Unitary.equivalent left right in
    let ctx = Printf.sprintf "case %d (w=%d)" i w in
    Alcotest.(check bool)
      (ctx ^ ": embedding keeps the dense verdict")
      truth
      (Unitary.equivalent wide_left wide_right);
    let p = Flatten.prepare wide_left wide_right in
    Alcotest.(check int) (ctx ^ ": full width") w (Flatten.width p);
    Alcotest.(check int)
      (ctx ^ ": idle wires stripped")
      (Flatten.kept (Flatten.prepare left right))
      (Flatten.kept p);
    let first_refuting =
      let rec go k =
        if k >= 16 then None
        else if dense_fidelity ~seed:1 ~index:k wide_left wide_right < 1.0 -. 1e-9 then
          Some k
        else go (k + 1)
      in
      go 0
    in
    List.iter
      (fun strategy ->
        let name = Printf.sprintf "%s %s" ctx (Qcec.strategy_to_string strategy) in
        let narrow = Qcec.check ~strategy left right in
        let wide = Qcec.check ~strategy wide_left wide_right in
        Alcotest.check outcome_testable (name ^ ": outcome") narrow.Equivalence.outcome
          wide.Equivalence.outcome;
        (match wide.Equivalence.outcome with
        | Equivalence.Equivalent -> Alcotest.(check bool) (name ^ ": sound") true truth
        | Equivalence.Not_equivalent ->
            Alcotest.(check bool) (name ^ ": sound") false truth
        | Equivalence.No_information | Equivalence.Timed_out -> ());
        (* A noted refuting stimulus is the first full-width one. *)
        (match noted_stimulus wide.Equivalence.note with
        | Some k ->
            incr refuted_by_stimulus;
            Alcotest.(check (option int)) (name ^ ": refuting stimulus") first_refuting
              (Some k)
        | None -> ());
        (* The race picks its reporter by timing; every other strategy
           is deterministic.  With the original wires in place the
           stimulus stream is the unembedded one, so the whole line
           matches; scattered wires draw other stimuli.  ZX runs on the
           full-width miter, whose extra boundary vertices reorder its
           rewrites: the spider count it gives up at is the wider
           register's own. *)
        let register_note =
          (strategy = Qcec.Zx && narrow.outcome = Equivalence.No_information)
          || (i mod 2 = 1 && noted_stimulus narrow.note <> None)
        in
        if strategy <> Qcec.Portfolio && not register_note then
          Alcotest.(check string) (name ^ ": verdict line")
            (Equivalence.verdict_line narrow) (Equivalence.verdict_line wide))
      strategies
  done;
  Alcotest.(check bool)
    (Printf.sprintf "coverage: %d with layouts, %d interleaved, %d stimulus notes" !layouts
       !interleaved !refuted_by_stimulus)
    true
    (!layouts >= 20 && !interleaved = 50 && !refuted_by_stimulus >= 20)

(* ------------------------------------------------------------ edge cases *)

let agree ~truth ~kept ctx a b =
  let p = Flatten.prepare a b in
  Alcotest.(check int) (ctx ^ ": kept") kept (Flatten.kept p);
  List.iter
    (fun strategy ->
      let r = Qcec.check ~strategy a b in
      let name = ctx ^ " " ^ Qcec.strategy_to_string strategy in
      match r.Equivalence.outcome with
      | Equivalence.Equivalent -> Alcotest.(check bool) name true truth
      | Equivalence.Not_equivalent -> Alcotest.(check bool) name false truth
      | Equivalence.No_information | Equivalence.Timed_out ->
          (* Only the one-sided checkers may stay silent. *)
          Alcotest.(check bool)
            (name ^ " is one-sided")
            true
            (List.mem strategy Qcec.[ Simulation; Zx; Clifford ]))
    strategies

let test_empty_and_barrier_only () =
  agree ~truth:true ~kept:1 "both empty" (Circuit.create 3) (Circuit.create 5);
  let barriers n =
    Circuit.add_list (Circuit.create n) [ Circuit.Barrier; Circuit.Barrier ]
  in
  agree ~truth:true ~kept:1 "barrier only" (barriers 4) (Circuit.create 4);
  let p = Flatten.prepare (barriers 4) (barriers 4) in
  Alcotest.(check (array int)) "the kept wire" [| 0 |] (Flatten.wires p);
  let a, b = Flatten.stripped p in
  Alcotest.(check int) "stripped width" 1 (Circuit.num_qubits a);
  Alcotest.(check int) "stripped width (right)" 1 (Circuit.num_qubits b)

(* Wires 2 and 3 carry nothing but the residual SWAP that realises the
   output permutation: they must survive stripping, or the pair would
   read as equivalent to a bare H. *)
let test_residual_swap_wires () =
  let h = Circuit.h (Circuit.create 5) 0 in
  let permuted =
    Circuit.with_output_perm h (Some (Perm.of_array [| 0; 1; 3; 2; 4 |]))
  in
  let p = Flatten.prepare permuted h in
  Alcotest.(check (array int)) "swap wires kept" [| 0; 2; 3 |] (Flatten.wires p);
  agree ~truth:false ~kept:3 "residual swap vs none" permuted h;
  agree ~truth:true ~kept:3 "residual swap vs explicit swap" permuted
    (Circuit.swap h 2 3)

let test_one_sided_wire () =
  let h = Circuit.h (Circuit.create 6) 0 in
  let extra = Circuit.x h 4 in
  let p = Flatten.prepare h extra in
  Alcotest.(check (array int)) "wire of one side kept" [| 0; 4 |] (Flatten.wires p);
  agree ~truth:false ~kept:2 "x on one side only" h extra;
  agree ~truth:true ~kept:2 "x x on one side only" h (Circuit.x extra 4);
  (* The wider side alone decides the width. *)
  let narrow = Circuit.h (Circuit.create 2) 0 in
  agree ~truth:false ~kept:2 "wider side's wire" narrow extra

(* qft-6 compiled onto Manhattan with its fifth cx deleted: the verdict
   line is the one the full-width check printed, at a stripped width
   far below Manhattan's 65 wires. *)
let test_manhattan_pin () =
  let lowered = Decompose.elementary (Workloads.qft 6) in
  let source = Qasm.circuit_of_string (Qasm.to_string lowered) in
  let compiled = Qasm.to_string (Compile.run Architecture.manhattan source) in
  let seen = ref 0 in
  let broken =
    String.split_on_char '\n' compiled
    |> List.filter (fun line ->
           if String.starts_with ~prefix:"cx " line then begin
             incr seen;
             !seen <> 5
           end
           else true)
    |> String.concat "\n" |> Qasm.circuit_of_string
  in
  let p = Flatten.prepare source broken in
  Alcotest.(check int) "full width" 65 (Flatten.width p);
  Alcotest.(check bool)
    (Printf.sprintf "stripped width %d below 65" (Flatten.kept p))
    true
    (Flatten.kept p < 65);
  let r = Qcec.check source broken in
  Alcotest.(check string) "verdict line"
    "not equivalent via combined (stimulus #1 refutes, fidelity 0.980785280)"
    (Equivalence.verdict_line r);
  let counters = (List.hd r.Equivalence.engine_stats).Equivalence.counters in
  Alcotest.(check (option int)) "prepare.width" (Some 65)
    (List.assoc_opt "prepare.width" counters);
  Alcotest.(check (option int)) "prepare.kept" (Some (Flatten.kept p))
    (List.assoc_opt "prepare.kept" counters)

let suite =
  [
    Alcotest.test_case "embedded fuzz pairs keep their verdicts" `Quick
      test_embedded_fuzz_pairs;
    Alcotest.test_case "empty and barrier-only pairs" `Quick test_empty_and_barrier_only;
    Alcotest.test_case "residual swap wires are kept" `Quick test_residual_swap_wires;
    Alcotest.test_case "wire touched on one side" `Quick test_one_sided_wire;
    Alcotest.test_case "manhattan pin" `Quick test_manhattan_pin;
  ]
