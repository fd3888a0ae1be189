(* Differential fuzzing: every checking strategy is run against the dense
   ground truth on random circuit pairs (equal or mutated), asserting
   soundness of every verdict.

   Soundness contract per strategy:
   - Reference / Alternating / Combined: verdict must MATCH ground truth;
   - Simulation: Not_equivalent must imply ground-truth non-equivalence
     (No_information is always allowed);
   - Zx: Equivalent must imply ground-truth equivalence, Not_equivalent
     (permutation mismatch) must imply non-equivalence;
   - Clifford: on Clifford-only circuits the verdict must match; on other
     circuits it must be No_information. *)

open Oqec_base
open Oqec_circuit
open Oqec_dd
open Oqec_qcec
open Helpers

let random_circuit rng ~clifford_only n len =
  let c = ref (Circuit.create n) in
  for _ = 1 to len do
    let q = Rng.int rng n in
    let q2 = (q + 1 + Rng.int rng (max 1 (n - 1))) mod n in
    match Rng.int rng 10 with
    | 0 -> c := Circuit.h !c q
    | 1 -> c := Circuit.s !c q
    | 2 -> c := Circuit.x !c q
    | 3 -> if n > 1 then c := Circuit.cx !c q q2
    | 4 -> if n > 1 then c := Circuit.cz !c q q2
    | 5 -> if n > 1 then c := Circuit.swap !c q q2
    | 6 -> if not clifford_only then c := Circuit.t_gate !c q
    | 7 ->
        if not clifford_only then
          c := Circuit.rz !c (Phase.of_pi_fraction (Rng.int rng 16) 8) q
    | 8 ->
        if (not clifford_only) && n > 1 then
          c := Circuit.cp !c (Phase.of_pi_fraction 1 (1 lsl (1 + Rng.int rng 3))) q q2
    | _ ->
        if (not clifford_only) && n > 2 then
          let q3 = (q2 + 1 + Rng.int rng (n - 2)) mod n in
          if q3 <> q && q3 <> q2 then c := Circuit.ccx !c q q2 q3
  done;
  !c

(* Derive a second circuit: either a disguised-equivalent variant or a
   mutated one. *)
let derive rng c =
  match Rng.int rng 4 with
  | 0 -> c
  | 1 ->
      (* Pad with a cancelling pair. *)
      let q = Rng.int rng (Circuit.num_qubits c) in
      Circuit.h (Circuit.h c q) q
  | 2 -> (
      match Oqec_workloads.Workloads.flip_cnot ~seed:(Rng.int rng 10000) c with
      | c' -> c'
      | exception Invalid_argument _ -> c)
  | _ -> (
      match Oqec_workloads.Workloads.remove_gate ~seed:(Rng.int rng 10000) c with
      | c' -> c'
      | exception Invalid_argument _ -> c)

let sound strategy truth outcome ~clifford_only =
  match (strategy, outcome) with
  | _, Equivalence.Timed_out -> true
  | (Qcec.Reference | Qcec.Alternating | Qcec.Combined | Qcec.Portfolio), o ->
      o = (if truth then Equivalence.Equivalent else Equivalence.Not_equivalent)
  | Qcec.Simulation, Equivalence.Not_equivalent -> not truth
  | Qcec.Simulation, (Equivalence.No_information | Equivalence.Equivalent) -> true
  | Qcec.Zx, Equivalence.Equivalent -> truth
  | Qcec.Zx, Equivalence.Not_equivalent -> not truth
  | Qcec.Zx, Equivalence.No_information -> true
  | Qcec.Clifford, Equivalence.No_information ->
      (* Allowed only when the pair is not Clifford-only; random "general"
         pairs may still happen to be Clifford, where a verdict is due. *)
      not clifford_only
  | Qcec.Clifford, o ->
      o = (if truth then Equivalence.Equivalent else Equivalence.Not_equivalent)

let all_strategies =
  Qcec.[ Reference; Alternating; Simulation; Zx; Combined; Clifford ]

let fuzz_case ~clifford_only seed =
  let rng = Rng.make ~seed in
  let n = 2 + Rng.int rng 3 in
  let c1 = random_circuit rng ~clifford_only n (6 + Rng.int rng 12) in
  let c2 = derive rng c1 in
  QCheck.assume (Circuit.gate_count c1 > 0);
  let truth = Unitary.equivalent c1 c2 in
  List.for_all
    (fun strategy ->
      let r = Qcec.check ~strategy ~seed ~timeout:20.0 c1 c2 in
      let ok = sound strategy truth r.Equivalence.outcome ~clifford_only in
      if not ok then
        Printf.printf "UNSOUND: %s said %s but truth=%b (seed %d)\n"
          (Qcec.strategy_to_string strategy)
          (Equivalence.outcome_to_string r.Equivalence.outcome)
          truth seed;
      ok)
    all_strategies

(* ------------------------------------------------- GC differential suite

   Seeded randomized hardening of the DD package's memory management:
   for ~50 random Clifford+T circuits on 2-6 qubits,
   (a) the DD built with GC forced at every safe point still matches the
       dense reference unitary,
   (b) the DD, ZX and simulation checkers give mutually consistent
       verdicts against dense ground truth, and
   (c) the alternating and reference checkers return identical outcomes
       (and identical final diagram sizes — canonicity) with GC forced
       after every gate application versus GC disabled. *)

let gc_forced = 0
let gc_disabled = max_int

let gc_case seed =
  let rng = Rng.make ~seed in
  let n = 2 + Rng.int rng 5 in
  let c1 = random_circuit rng ~clifford_only:false n (8 + Rng.int rng 12) in
  let c2 = derive rng c1 in
  if Circuit.gate_count c1 = 0 then ()
  else begin
    (* (a) forced-GC DD build vs dense reference *)
    let pkg = Dd.create ~gc_threshold:gc_forced () in
    let dd = Dd_circuit.of_circuit pkg c1 in
    Alcotest.(check bool)
      (Printf.sprintf "seed %d: forced-gc DD matches dense unitary" seed)
      true
      (Dmatrix.equal ~tol:1e-8 (Unitary.unitary c1) (Dd_export.to_dmatrix pkg dd ~n));
    Alcotest.(check bool)
      (Printf.sprintf "seed %d: gc actually ran" seed)
      true
      ((Dd.stats pkg).Dd.gc_runs >= 1);
    (* (b) verdict consistency across checkers *)
    let truth = Unitary.equivalent c1 c2 in
    List.iter
      (fun strategy ->
        let r = Qcec.check ~strategy ~seed ~gc_threshold:gc_forced ~timeout:20.0 c1 c2 in
        Alcotest.(check bool)
          (Printf.sprintf "seed %d: %s sound under forced gc" seed
             (Qcec.strategy_to_string strategy))
          true
          (sound strategy truth r.Equivalence.outcome ~clifford_only:false))
      Qcec.[ Reference; Alternating; Simulation; Zx ];
    (* (c) forced vs disabled GC: identical verdicts and final sizes *)
    let on = Dd_checker.check_miter ~gc_threshold:gc_forced c1 c2 in
    let off = Dd_checker.check_miter ~gc_threshold:gc_disabled c1 c2 in
    Alcotest.(check bool)
      (Printf.sprintf "seed %d: alternating verdict gc-invariant" seed)
      true
      (on.Equivalence.outcome = off.Equivalence.outcome);
    Alcotest.(check int)
      (Printf.sprintf "seed %d: alternating final size gc-invariant" seed)
      off.Equivalence.final_size on.Equivalence.final_size;
    let ron = Dd_checker.check_reference ~gc_threshold:gc_forced c1 c2 in
    let roff = Dd_checker.check_reference ~gc_threshold:gc_disabled c1 c2 in
    Alcotest.(check bool)
      (Printf.sprintf "seed %d: reference verdict gc-invariant" seed)
      true
      (ron.Equivalence.outcome = roff.Equivalence.outcome)
  end

let test_gc_differential () =
  for seed = 1 to 50 do
    gc_case seed
  done

let prop_differential_general =
  qtest ~count:40 "differential: all strategies sound on Clifford+T pairs"
    QCheck.(make ~print:string_of_int Gen.int)
    (fun seed -> fuzz_case ~clifford_only:false (abs seed))

let prop_differential_clifford =
  qtest ~count:40 "differential: all strategies sound on Clifford pairs"
    QCheck.(make ~print:string_of_int Gen.int)
    (fun seed -> fuzz_case ~clifford_only:true (abs seed))

let suite =
  [
    prop_differential_general;
    prop_differential_clifford;
    Alcotest.test_case "gc differential: 50 seeded Clifford+T pairs" `Quick
      test_gc_differential;
  ]
