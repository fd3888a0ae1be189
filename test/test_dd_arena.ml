(* The arena DD package: differential tests against independent
   oracles, GC and rooting properties of the compacting arena,
   weight-table pins, and the streaming QASM front end.

   The oracles are the dense reference semantics ({!Unitary}, at most 8
   qubits here): for every generated pair the DD verdict must match the
   dense one, and the stimuli strategy must refute at exactly the first
   stimulus whose dense output states differ. *)

open Oqec_base
open Oqec_circuit
open Oqec_dd
open Oqec_compile
open Oqec_workloads.Workloads
open Oqec_qcec
open Helpers

let outcome_testable =
  Alcotest.testable
    (fun ppf o -> Format.pp_print_string ppf (Equivalence.outcome_to_string o))
    ( = )

(* ------------------------------------------------------------- Wtable *)

let test_wtable_pins () =
  let w = Wtable.create ~tol:1e-10 () in
  Alcotest.(check int) "zero pinned" Wtable.zero_id (Wtable.intern w Cx.zero);
  Alcotest.(check int) "one pinned" Wtable.one_id (Wtable.intern w Cx.one);
  (* Negative zero folds onto positive zero before ids are assigned. *)
  Alcotest.(check int)
    "-0 re is zero" Wtable.zero_id
    (Wtable.intern w (Cx.make (-0.0) 0.0));
  Alcotest.(check int)
    "-0 im is zero" Wtable.zero_id
    (Wtable.intern w (Cx.make 0.0 (-0.0)));
  Alcotest.(check int)
    "1 with -0 im is one" Wtable.one_id
    (Wtable.intern w (Cx.make 1.0 (-0.0)));
  (* Tolerance snapping holds through the id layer. *)
  let a = Wtable.intern w (Cx.make 0.5 (-0.25)) in
  let b = Wtable.intern w (Cx.make (0.5 +. 1e-12) (-0.25)) in
  Alcotest.(check int) "snapped to same id" a b;
  let z = Wtable.get w a in
  Alcotest.(check (float 0.0)) "get re" 0.5 z.Cx.re;
  Alcotest.(check (float 0.0)) "get im" (-0.25) z.Cx.im;
  (* Non-finite components stay total: equal bit patterns share an id,
     and the table keeps working afterwards. *)
  let i1 = Wtable.intern w (Cx.make infinity 0.0) in
  let i2 = Wtable.intern w (Cx.make infinity 0.0) in
  Alcotest.(check int) "inf stable" i1 i2;
  let n1 = Wtable.intern w (Cx.make nan 0.0) in
  let n2 = Wtable.intern w (Cx.make nan 0.0) in
  Alcotest.(check int) "nan stable" n1 n2;
  Alcotest.(check bool) "nan distinct from inf" true (n1 <> i1);
  Alcotest.(check bool) "nan value round-trips" true (Float.is_nan (Wtable.re w n1));
  let c = Wtable.intern w (Cx.make 0.5 (-0.25)) in
  Alcotest.(check int) "normal interning unaffected" a c

(* -------------------------------------------------- dense ground truth *)

(* Build the circuit's DD keeping the result rooted, as a client that
   holds it across later safe points must. *)
let apply_circuit pkg c =
  let n = Circuit.num_qubits c in
  let d = ref (Dd.identity pkg n) in
  Dd.root pkg !d;
  List.iter
    (fun op ->
      let nd = Dd_circuit.apply_op pkg n !d op in
      Dd.root pkg nd;
      Dd.unroot pkg !d;
      d := nd)
    (Circuit.ops (Decompose.elementary c));
  !d

let test_arena_matches_dense () =
  List.iter
    (fun c ->
      let pkg = Dd.create () in
      let d = apply_circuit pkg c in
      check_matrix_up_to_phase (Circuit.name c) (Unitary.unitary c)
        (Dd_export.to_dmatrix pkg d ~n:(Circuit.num_qubits c)))
    [ ghz 3; qft 4; grover ~seed:3 3; w_state 4 ]

(* ------------------------------------------------- differential suite *)

(* Local mirror of the differential generator: small random Clifford+T
   circuits with an equal-or-mutated partner, fully determined by the
   case index. *)
let random_circuit rng n len =
  let c = ref (Circuit.create n) in
  for _ = 1 to len do
    let q = Rng.int rng n in
    let q2 = (q + 1 + Rng.int rng (max 1 (n - 1))) mod n in
    match Rng.int rng 8 with
    | 0 -> c := Circuit.h !c q
    | 1 -> c := Circuit.s !c q
    | 2 -> c := Circuit.x !c q
    | 3 -> c := Circuit.t_gate !c q
    | 4 -> c := Circuit.cx !c q q2
    | 5 -> c := Circuit.cz !c q q2
    | 6 -> c := Circuit.swap !c q q2
    | _ -> c := Circuit.rz !c (Phase.of_pi_fraction (Rng.int rng 16) 8) q
  done;
  !c

let derive rng c =
  match Rng.int rng 3 with
  | 0 -> c
  | 1 ->
      let q = Rng.int rng (Circuit.num_qubits c) in
      Circuit.h (Circuit.h c q) q
  | _ -> (
      match inject_fault ~seed:(Rng.int rng 10000) c with
      | Some (c', _) -> c'
      | None -> c)

let case i =
  let rng = Rng.split_at (Rng.make ~seed:20260809) i in
  let n = 2 + Rng.int rng 4 in
  let len = 5 + Rng.int rng 30 in
  let g = random_circuit rng n len in
  (g, derive rng g)

let dense_outcome g g' =
  let a, b = Flatten.align g g' in
  if Unitary.equivalent a b then Equivalence.Equivalent else Equivalence.Not_equivalent

(* The dense prediction for the stimuli strategy: the outcome and the
   number of stimuli run, refuting at the first index whose output
   states differ. *)
let dense_stimuli ~seed ~runs g g' =
  let n = Circuit.num_qubits g in
  let output c bits =
    let index = ref 0 in
    Array.iteri (fun q b -> if b then index := !index lor (1 lsl q)) bits;
    let v = Unitary.basis_state n !index in
    Unitary.apply_to_vector c v;
    v
  in
  let rec scan i =
    if i >= runs then (Equivalence.No_information, runs)
    else
      let bits = Sim_checker.stimulus_bits ~seed ~index:i n in
      let va = output g bits and vb = output g' bits in
      let ip = ref Cx.zero in
      Array.iteri (fun k a -> ip := Cx.add !ip (Cx.mul (Cx.conj a) vb.(k))) va;
      if Cx.mag !ip < 1.0 -. 1e-9 then (Equivalence.Not_equivalent, i + 1) else scan (i + 1)
  in
  scan 0

let test_differential_pairs () =
  for i = 0 to 99 do
    let g, g' = case i in
    let run strategy = Qcec.check ~strategy ~seed:11 ~sim_runs:8 g g' in
    Alcotest.check outcome_testable
      (Printf.sprintf "alternating case %d" i)
      (dense_outcome g g') (run Qcec.Alternating).Equivalence.outcome;
    let expected, stimuli = dense_stimuli ~seed:11 ~runs:8 g g' in
    let s = run Qcec.Simulation in
    Alcotest.check outcome_testable
      (Printf.sprintf "simulation case %d" i)
      expected s.Equivalence.outcome;
    (* Refutation must come from the first stimulus the dense states
       tell apart. *)
    Alcotest.(check int)
      (Printf.sprintf "counterexample index case %d" i)
      stimuli s.Equivalence.simulations
  done

let test_table1_miters () =
  let pairs =
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
  in
  List.iter
    (fun (name, g, g') ->
      Alcotest.check outcome_testable (name ^ " dense") Equivalence.Equivalent
        (dense_outcome g g');
      List.iter
        (fun strategy ->
          let r = Qcec.check ~strategy ~seed:7 g g' in
          Alcotest.check outcome_testable name Equivalence.Equivalent r.Equivalence.outcome)
        [ Qcec.Alternating; Qcec.Reference; Qcec.Combined ];
      (* A faulted compiled side must be rejected, as the dense
         reference confirms. *)
      match inject_fault ~seed:3 g' with
      | None -> ()
      | Some (bad, _) ->
          Alcotest.check outcome_testable (name ^ " faulted, dense")
            Equivalence.Not_equivalent (dense_outcome g bad);
          let r = Qcec.check ~strategy:Qcec.Alternating ~seed:7 g bad in
          Alcotest.check outcome_testable (name ^ " faulted") Equivalence.Not_equivalent
            r.Equivalence.outcome)
    pairs

let test_jobs_independence () =
  let g = qft 4 and g' = Compile.run (Architecture.ring 5) (qft 4) in
  let verdicts =
    List.map
      (fun jobs ->
        (Qcec.check ~strategy:Qcec.Portfolio ~jobs ~seed:7 g g')
          .Equivalence.outcome)
      [ 1; 3 ]
  in
  match verdicts with
  | [ a; b ] ->
      Alcotest.check outcome_testable "portfolio verdict" Equivalence.Equivalent a;
      Alcotest.check outcome_testable "jobs-independent" a b
  | _ -> assert false

(* --------------------------------------------------- GC and rooting *)

let test_rooted_stable_across_gc () =
  let pkg = Dd.create () in
  let c = qft 4 in
  let d = apply_circuit pkg c in
  let id0 = Dd.node_id d in
  let dense0 = Dd_export.to_dmatrix pkg d ~n:4 in
  (* Pile up garbage, then collect: the rooted edge must neither move
     nor change meaning. *)
  for seed = 1 to 5 do
    ignore (apply_circuit pkg (graph_state ~seed 5) : Dd.edge)
  done;
  (* The intermediate diagrams above were rooted by apply_circuit; only
     their final edges still are.  Unroot nothing else: collect and see
     reclamation of the interior garbage. *)
  let reclaimed = Dd.gc pkg in
  Alcotest.(check bool) "something reclaimed" true (reclaimed > 0);
  Alcotest.(check int) "rooted edge pinned" id0 (Dd.node_id d);
  check_matrix "meaning preserved" dense0 (Dd_export.to_dmatrix pkg d ~n:4);
  (* Unrooting lets a later pass reclaim the diagram. *)
  let live_before = Dd.live pkg in
  Dd.unroot pkg d;
  ignore (Dd.gc pkg : int);
  Alcotest.(check bool) "unrooted reclaimed" true (Dd.live pkg < live_before)

(* Regression: the bump allocator could never come back down past a
   pinned root, so long miter runs leaked address space — capacity grew
   with total allocations instead of live size.  Freed slots below the
   pin must be reused. *)
let test_capacity_bounded_by_live () =
  let pkg = Dd.create ~gc_threshold:512 ~capacity:2048 () in
  let n = 4 in
  let rng = Rng.make ~seed:5 in
  let d = ref (Dd.identity pkg n) in
  Dd.root pkg !d;
  for _ = 1 to 3000 do
    let c = random_circuit rng n 1 in
    List.iter
      (fun op ->
        let nd = Dd_circuit.apply_op pkg n !d op in
        Dd.root pkg nd;
        Dd.unroot pkg !d;
        d := nd)
      (Circuit.ops (Decompose.elementary c))
  done;
  let a = (Dd.stats pkg).Dd.arena in
  Alcotest.(check bool) "compactions ran" true (a.Dd.a_compactions > 0);
  Alcotest.(check bool)
    (Printf.sprintf "capacity stays bounded (%d)" a.Dd.a_capacity)
    true
    (a.Dd.a_capacity <= 8192)

(* ----------------------------------------------------- fuzz oracle *)

let test_fuzz_oracle_arena () =
  let config =
    {
      Oqec_fuzz.Fuzz.default_config with
      runs = 12;
      max_qubits = 4;
      max_gates = 12;
      seed = 424242;
      shrink = false;
      corpus = None;
    }
  in
  let stats = Oqec_fuzz.Fuzz.run config in
  Alcotest.(check int) "cases ran" 12 stats.Oqec_fuzz.Fuzz.cases;
  Alcotest.(check int) "no oracle violations" 0 stats.Oqec_fuzz.Fuzz.failures

(* ------------------------------------------------------- streaming *)

let write_tmp contents =
  let path = Filename.temp_file "oqec_stream" ".qasm" in
  let oc = open_out path in
  output_string oc contents;
  close_out oc;
  path

let stream_pair ~seed ~qubits ~gates ~barrier_every =
  let emit twin =
    let path = Filename.temp_file "oqec_stream" ".qasm" in
    let oc = open_out path in
    stream_qasm ~seed ~qubits ~gates ~barrier_every ~twin oc;
    close_out oc;
    path
  in
  (emit false, emit true)

let test_stream_matches_batch () =
  let src =
    "OPENQASM 2.0;\ninclude \"qelib1.inc\";\n\
     gate foo a,b { h a; cx a,b; rz(pi/4) b; }\n\
     qreg q[3];\ncreg c[3];\n\
     h q[0];\nfoo q[1],q[2];\nbarrier q;\ncx q[0],q[2];\nrz(pi/8) q[1];\n\
     x q;\n"
  in
  let path = write_tmp src in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let batch = Oqec_qasm.Qasm.circuit_of_file path in
      let n, rev_ops =
        Oqec_qasm.Qasm_stream.fold path ~init:[] ~f:(fun acc op -> op :: acc)
      in
      Alcotest.(check int) "qubits" (Circuit.num_qubits batch) n;
      let streamed = List.rev rev_ops in
      Alcotest.(check int)
        "op count" (List.length (Circuit.ops batch))
        (List.length streamed);
      List.iter2
        (fun a b -> Alcotest.(check bool) "op equal" true (a = b))
        (Circuit.ops batch) streamed)

let expect_unsupported name src =
  let path = write_tmp src in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Alcotest.(check bool)
        name true
        (match Oqec_qasm.Qasm_stream.fold path ~init:() ~f:(fun () _ -> ()) with
        | _ -> false
        | exception Oqec_qasm.Qasm_stream.Unsupported _ -> true))

let test_stream_unsupported () =
  expect_unsupported "measure rejected"
    "OPENQASM 2.0;\nqreg q[1];\ncreg c[1];\nh q[0];\nmeasure q[0] -> c[0];\n";
  expect_unsupported "second qreg rejected" "OPENQASM 2.0;\nqreg q[1];\nqreg r[1];\n";
  expect_unsupported "layout comment rejected"
    "OPENQASM 2.0;\n// oqec:layout 1 0\nqreg q[2];\nh q[0];\n";
  expect_unsupported "gate before qreg rejected" "OPENQASM 2.0;\nh q[0];\nqreg q[1];\n"

let test_stream_offsets () =
  let base, twin = stream_pair ~seed:3 ~qubits:3 ~gates:50 ~barrier_every:10 in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove base;
      Sys.remove twin)
    (fun () ->
      (* Tiny chunks exercise the window-sliding refill path. *)
      let s = Oqec_qasm.Qasm_stream.open_file ~chunk_size:32 base in
      Fun.protect
        ~finally:(fun () -> Oqec_qasm.Qasm_stream.close s)
        (fun () ->
          while Oqec_qasm.Qasm_stream.step s ~emit:ignore do
            ()
          done;
          Alcotest.(check int)
            "cursor consumed the whole file"
            (Oqec_qasm.Qasm_stream.total_bytes s)
            (Oqec_qasm.Qasm_stream.consumed_bytes s);
          Alcotest.(check int) "qubits" 3 (Oqec_qasm.Qasm_stream.num_qubits s)))

let test_stream_twin_check () =
  let base, twin = stream_pair ~seed:5 ~qubits:4 ~gates:400 ~barrier_every:100 in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove base;
      Sys.remove twin)
    (fun () ->
      (* The dense unitaries of the parsed files are the reference. *)
      let dense () =
        dense_outcome
          (Oqec_qasm.Qasm.circuit_of_file base)
          (Oqec_qasm.Qasm.circuit_of_file twin)
      in
      Alcotest.check outcome_testable "twin pair equivalent, dense" Equivalence.Equivalent
        (dense ());
      List.iter
        (fun scheme ->
          let r = Stream_checker.check ~scheme ~chunk_size:512 base twin in
          Alcotest.check outcome_testable "twin pair equivalent" Equivalence.Equivalent
            r.Equivalence.outcome;
          Alcotest.(check string)
            "streamed checker ran" "stream-dd"
            (match r.Equivalence.runs with
            | [ run ] -> run.Equivalence.checker
            | _ -> "?"))
        [ Dd_scheme.Proportional; Dd_scheme.Lookahead; Dd_scheme.Alternating ];
      (* A trailing extra gate must flip the verdict. *)
      let oc = open_out_gen [ Open_append ] 0o644 twin in
      output_string oc "x q[0];\n";
      close_out oc;
      Alcotest.check outcome_testable "mutated twin, dense" Equivalence.Not_equivalent
        (dense ());
      let r = Stream_checker.check ~chunk_size:512 base twin in
      Alcotest.check outcome_testable "mutated twin rejected" Equivalence.Not_equivalent
        r.Equivalence.outcome)

let suite =
  [
    Alcotest.test_case "wtable pins" `Quick test_wtable_pins;
    Alcotest.test_case "arena matches dense" `Quick test_arena_matches_dense;
    Alcotest.test_case "differential pairs" `Slow test_differential_pairs;
    Alcotest.test_case "table-1 miters" `Slow test_table1_miters;
    Alcotest.test_case "jobs independence" `Quick test_jobs_independence;
    Alcotest.test_case "rooted stable across gc" `Quick test_rooted_stable_across_gc;
    Alcotest.test_case "capacity bounded by live" `Quick test_capacity_bounded_by_live;
    Alcotest.test_case "fuzz oracle on arena" `Slow test_fuzz_oracle_arena;
    Alcotest.test_case "stream matches batch" `Quick test_stream_matches_batch;
    Alcotest.test_case "stream unsupported" `Quick test_stream_unsupported;
    Alcotest.test_case "stream offsets" `Quick test_stream_offsets;
    Alcotest.test_case "stream twin check" `Quick test_stream_twin_check;
  ]
