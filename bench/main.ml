(* Benchmark harness regenerating every table and figure of the paper.

   Usage:
     dune exec bench/main.exe                      run everything (small scale)
     dune exec bench/main.exe -- table1-compiled   Table 1, top half
     dune exec bench/main.exe -- table1-optimized  Table 1, bottom half
     dune exec bench/main.exe -- fig1 .. fig6      figure demos
     dune exec bench/main.exe -- ablations         Section 6.2 ablations
     dune exec bench/main.exe -- dd-stats          DD engine statistics
     dune exec bench/main.exe -- dd-arena          DD miters, stream -> BENCH_dd_arena.json
     dune exec bench/main.exe -- dd-schemes        application schemes -> BENCH_dd_schemes.json
                                                   (also regenerates bench/dispatch.json)
     dune exec bench/main.exe -- portfolio         parallel portfolio vs Combined
     dune exec bench/main.exe -- trace-smoke       traced run -> BENCH_trace.json
     dune exec bench/main.exe -- fuzz-smoke        differential fuzz -> BENCH_fuzz.json
     dune exec bench/main.exe -- zx-smoke          ZX engines differential -> BENCH_zx.json
     dune exec bench/main.exe -- cert-smoke        certificates + validator -> BENCH_cert.json
     dune exec bench/main.exe -- param-smoke       symbolic vs instantiation -> BENCH_param.json
     dune exec bench/main.exe -- serve             resident service cold/warm -> BENCH_serve.json
     dune exec bench/main.exe -- micro             Bechamel micro-benchmarks
   Options:
     --paper        paper-scale instance sizes (hours; default is a scaled-down
                    suite preserving the relative shape)
     --timeout S    per-instance per-method timeout in seconds (default 10)

   Absolute times differ from the paper's testbed; EXPERIMENTS.md records the
   shape comparison. *)

open Oqec_base
open Oqec_circuit
open Oqec_compile
open Oqec_workloads.Workloads
open Oqec_qcec

type scale = Small | Paper

type options = { scale : scale; timeout : float; seed : int }

let default_options = { scale = Small; timeout = 10.0; seed = 1 }

(* ------------------------------------------------------------ Instances *)

type instance = {
  name : string;
  original : Circuit.t;
  derived : Circuit.t;  (* compiled or optimised version *)
}

let compiled_instance opts name g =
  let rng = Rng.make ~seed:opts.seed in
  let arch = Architecture.manhattan in
  let layout = Compile.spread_layout arch rng in
  { name; original = g; derived = Compile.run ~initial_layout:layout arch g }

let optimized_instance name g =
  let lowered = Decompose.to_cx_basis ~keep_swaps:false (Decompose.elementary g) in
  { name; original = g; derived = Optimize.optimize lowered }

let compiled_suite opts =
  let sizes f small paper = List.map f (match opts.scale with Small -> small | Paper -> paper) in
  List.concat
    [
      sizes
        (fun n -> compiled_instance opts (Printf.sprintf "grover-%d" n) (grover ~seed:3 n))
        [ 4; 5 ] [ 6; 7; 8 ];
      sizes
        (fun n -> compiled_instance opts (Printf.sprintf "qft-%d" n) (qft n))
        [ 8; 12 ] [ 23; 38 ];
      sizes
        (fun n ->
          compiled_instance opts (Printf.sprintf "qwalk-%d" n) (random_walk ~steps:n n))
        [ 5; 6 ] [ 7; 8; 9 ];
      sizes
        (fun n ->
          compiled_instance opts (Printf.sprintf "qpe-exact-%d" n) (qpe_exact ~seed:3 (n - 1)))
        [ 8; 11 ] [ 22; 39 ];
      sizes
        (fun n -> compiled_instance opts (Printf.sprintf "ghz-%d" n) (ghz n))
        [ 16 ] [ 65 ];
      sizes
        (fun n ->
          compiled_instance opts (Printf.sprintf "graphstate-%d" n) (graph_state ~seed:3 n))
        [ 14 ] [ 62 ];
    ]

let optimized_suite opts =
  let sizes f small paper = List.map f (match opts.scale with Small -> small | Paper -> paper) in
  List.concat
    [
      (match opts.scale with
      | Small ->
          [
            optimized_instance "urf-10" (random_reversible ~seed:2 ~gates:300 10);
            optimized_instance "plus21mod256" (const_adder_mod ~bits:8 ~constant:21);
            optimized_instance "comparator-6" (comparator 6);
          ]
      | Paper ->
          [
            optimized_instance "urf-20" (random_reversible ~seed:2 ~gates:5000 20);
            optimized_instance "plus63mod4096" (const_adder_mod ~bits:12 ~constant:63);
            optimized_instance "comparator-16" (comparator 16);
          ]);
      sizes
        (fun n -> optimized_instance (Printf.sprintf "grover-%d" n) (grover ~seed:5 n))
        [ 4; 5 ] [ 8; 9; 10 ];
      sizes
        (fun n -> optimized_instance (Printf.sprintf "qft-%d" n) (qft n))
        [ 8; 10 ] [ 32; 43; 44 ];
      sizes
        (fun n ->
          optimized_instance (Printf.sprintf "qwalk-%d" n) (random_walk ~steps:n n))
        [ 5; 6 ] [ 7; 8; 9 ];
    ]

(* -------------------------------------------------------------- Running *)

type cell = { time : float; outcome : Equivalence.outcome }

let run_method opts strategy g g' =
  let t0 = Mclock.now () in
  let r = Qcec.check ~strategy ~timeout:opts.timeout ~seed:opts.seed g g' in
  { time = Mclock.now () -. t0; outcome = r.Equivalence.outcome }

let cell_to_string opts expected c =
  Bench_fmt.cell_to_string ~timeout:opts.timeout ~expected c.outcome ~time:c.time

let header () =
  Printf.printf "%-16s %4s %7s %7s | %18s | %18s | %18s\n" "benchmark" "n" "|G|" "|G'|"
    "equivalent" "1 gate missing" "flipped cnot";
  Printf.printf "%-16s %4s %7s %7s | %8s %9s | %8s %9s | %8s %9s\n" "" "" "" "" "t_dd" "t_zx"
    "t_dd" "t_zx" "t_dd" "t_zx";
  Printf.printf "%s\n" (String.make 100 '-')

let run_table opts title suite =
  Printf.printf "\n== %s (scale=%s, timeout=%gs) ==\n" title
    (match opts.scale with Small -> "small" | Paper -> "paper")
    opts.timeout;
  header ();
  (* The paper reports the share of instances where the two methods
     finish within a fixed delta of each other (82% at 10 s on its
     reversible set); track the same statistic at this run's timeout. *)
  let total_within = ref 0 and total = ref 0 in
  List.iter
    (fun inst ->
      let missing = remove_gate ~seed:(opts.seed + 13) inst.derived in
      let flipped = flip_cnot ~seed:(opts.seed + 17) inst.derived in
      let run_pair expected g g' =
        let dd = run_method opts Qcec.Combined g g' in
        let zx = run_method opts Qcec.Zx g g' in
        incr total;
        if
          Float.abs (dd.time -. zx.time) <= opts.timeout
          && dd.outcome <> Equivalence.Timed_out
          && zx.outcome <> Equivalence.Timed_out
        then incr total_within;
        (cell_to_string opts expected dd, cell_to_string opts expected zx)
      in
      let e_dd, e_zx = run_pair `Equivalent inst.original inst.derived in
      let m_dd, m_zx = run_pair `Not_equivalent inst.original missing in
      let f_dd, f_zx = run_pair `Not_equivalent inst.original flipped in
      Printf.printf "%-16s %4d %7d %7d | %8s %9s | %8s %9s | %8s %9s\n%!" inst.name
        (Circuit.num_qubits inst.original)
        (Circuit.gate_count inst.original)
        (Circuit.gate_count inst.derived)
        e_dd e_zx m_dd m_zx f_dd f_zx)
    suite;
  Printf.printf "both methods within %gs of each other: %d/%d instances (%.0f%%)\n"
    opts.timeout !total_within !total
    (100.0 *. float_of_int !total_within /. float_of_int (max 1 !total));
  Printf.printf
    "(legend: * = no-information, the ZX answer the paper expects on faulty instances;\n";
  Printf.printf
    " ? = inconclusive on an equivalent instance; ! = wrong verdict; >T = timeout)\n"

(* Extended workloads beyond the paper's Table 1 (new algorithm families
   plus the stabilizer-tableau checker, which is complete for the
   Clifford rows). *)
let run_extended opts =
  Printf.printf "\n== Extended workloads (beyond the paper; timeout=%gs) ==\n" opts.timeout;
  Printf.printf "%-16s %4s %7s %7s | %26s | %18s\n" "benchmark" "n" "|G|" "|G'|"
    "equivalent" "flipped cnot";
  Printf.printf "%-16s %4s %7s %7s | %8s %8s %8s | %8s %9s\n" "" "" "" "" "t_dd" "t_zx"
    "t_cliff" "t_dd" "t_zx";
  Printf.printf "%s\n" (String.make 100 '-');
  let instances =
    [
      compiled_instance opts "bv-16" (bernstein_vazirani ~secret:0xBEEF 16);
      compiled_instance opts "dj-12" (deutsch_jozsa ~seed:3 ~balanced:true 12);
      compiled_instance opts "wstate-8" (w_state 8);
      compiled_instance opts "hwb-5" (hidden_weighted_bit 5);
      compiled_instance opts "vqe-6x4" (vqe_ansatz ~seed:3 ~layers:4 6);
      compiled_instance opts "graphstate-20" (graph_state ~seed:5 20);
    ]
  in
  List.iter
    (fun inst ->
      let flipped = flip_cnot ~seed:(opts.seed + 17) inst.derived in
      let e_dd = run_method opts Qcec.Combined inst.original inst.derived in
      let e_zx = run_method opts Qcec.Zx inst.original inst.derived in
      let e_cl = run_method opts Qcec.Clifford inst.original inst.derived in
      let f_dd = run_method opts Qcec.Combined inst.original flipped in
      let f_zx = run_method opts Qcec.Zx inst.original flipped in
      let cl_cell =
        match e_cl.outcome with
        | Equivalence.No_information -> "n/a"
        | _ -> cell_to_string opts `Equivalent e_cl
      in
      Printf.printf "%-16s %4d %7d %7d | %8s %8s %8s | %8s %9s\n%!" inst.name
        (Circuit.num_qubits inst.original)
        (Circuit.gate_count inst.original)
        (Circuit.gate_count inst.derived)
        (cell_to_string opts `Equivalent e_dd)
        (cell_to_string opts `Equivalent e_zx)
        cl_cell
        (cell_to_string opts `Not_equivalent f_dd)
        (cell_to_string opts `Not_equivalent f_zx))
    instances;
  Printf.printf "(t_cliff: stabilizer-tableau checker, n/a on non-Clifford circuits)\n"

(* -------------------------------------------------------------- Figures *)

let fig1 () =
  print_endline "\n== Fig. 1: GHZ preparation circuit and its system matrix ==";
  let g = ghz 3 in
  print_string (Render.to_ascii g);
  Format.printf "@.%a@." Dmatrix.pp (Unitary.unitary g)

let fig2 () =
  print_endline "\n== Fig. 2: GHZ compiled onto the 5-qubit linear architecture ==";
  let g = ghz 3 in
  let g' = Compile.run ~optimize:false (Architecture.linear 5) g in
  print_string (Render.to_ascii g');
  (match Circuit.initial_layout g' with
  | Some l -> Format.printf "initial layout:     %a@." Perm.pp l
  | None -> ());
  match Circuit.output_perm g' with
  | Some p -> Format.printf "output permutation: %a@." Perm.pp p
  | None -> ()

let fig3 () =
  print_endline "\n== Fig. 3: decision diagrams of the GHZ matrix and the identity ==";
  let module Dd = Oqec_dd.Dd in
  let module Dd_circuit = Oqec_dd.Dd_circuit in
  let module Dd_export = Oqec_dd.Dd_export in
  let pkg = Dd.create () in
  let ghz_dd = Dd_circuit.of_circuit pkg (ghz 3) in
  Printf.printf "(a) GHZ system-matrix DD: %d nodes (dense matrix: 64 entries)\n"
    (Dd.node_count pkg ghz_dd);
  Format.printf "%a@." (Dd_export.dump pkg) ghz_dd;
  let id = Dd.identity pkg 8 in
  Printf.printf "(b) identity DD on 8 qubits: %d nodes (linear in width)\n"
    (Dd.node_count pkg id)

let fig4 () =
  print_endline "\n== Fig. 4: the alternating miter stays close to the identity ==";
  let g = ghz 3 in
  let g' = Compile.run (Architecture.linear 5) g in
  let trace = ref [] in
  let r = Dd_checker.check_miter ~trace:(fun k -> trace := k :: !trace) g g' in
  Printf.printf "intermediate node counts: %s\n"
    (String.concat " " (List.rev_map string_of_int !trace));
  Format.printf "verdict: %a@." Equivalence.pp_report r;
  (* Contrast: building G' sequentially first grows the DD. *)
  let module Dd = Oqec_dd.Dd in
  let module Dd_circuit = Oqec_dd.Dd_circuit in
  let pkg = Dd.create () in
  let seq = Dd_circuit.of_circuit pkg (Flatten.flatten (qft 10)) in
  Printf.printf "for contrast, qft-10 built sequentially: %d nodes; "
    (Dd.node_count pkg seq);
  let tr = ref 0 in
  let r2 =
    Dd_checker.check_miter ~trace:(fun k -> tr := max !tr k) (qft 10) (qft 10)
  in
  Printf.printf "alternating miter of qft-10 with itself peaks at %d nodes (%s)\n" !tr
    (Equivalence.outcome_to_string r2.Equivalence.outcome)

let fig5 () =
  print_endline "\n== Fig. 5 / Ex. 6: ZX-calculus rewriting proves SWAP = 3 CNOTs ==";
  let module Zx_graph = Oqec_zx.Zx_graph in
  let module Zx_circuit = Oqec_zx.Zx_circuit in
  let module Zx_simplify = Oqec_zx.Zx_simplify in
  let sw = Circuit.swap (Circuit.create 2) 0 1 in
  let three = Circuit.cx (Circuit.cx (Circuit.cx (Circuit.create 2) 0 1) 1 0) 0 1 in
  let d = Zx_circuit.of_miter sw three in
  Printf.printf "miter diagram: %d spiders\n" (Zx_graph.spider_count d);
  let fused = Zx_simplify.spider_simp d in
  Zx_simplify.to_gh d;
  Printf.printf "after %d spider fusions (graph-like): %d spiders\n" fused
    (Zx_graph.spider_count d);
  ignore (Zx_simplify.full_reduce d);
  (match Zx_simplify.extract_permutation d with
  | Some p -> Format.printf "reduced to bare wires with permutation %a@." Perm.pp p
  | None -> print_endline "!! did not reduce");
  print_endline "each rewrite rule is certified against the tensor semantics in the test suite"

let fig6 () =
  print_endline "\n== Fig. 6 / Ex. 7: ZX diagrams of the GHZ circuits and their reduction ==";
  let module Zx_graph = Oqec_zx.Zx_graph in
  let module Zx_circuit = Oqec_zx.Zx_circuit in
  let module Zx_simplify = Oqec_zx.Zx_simplify in
  let g = ghz 3 in
  let g' = Compile.run (Architecture.linear 5) g in
  let dg = Zx_circuit.of_circuit g in
  Format.printf "diagram of G:@.%a@." Zx_graph.pp dg;
  let a, b = Flatten.align g g' in
  let miter = Zx_circuit.of_miter (Flatten.flatten a) (Flatten.flatten b) in
  Printf.printf "miter of G and compiled G': %d spiders\n" (Zx_graph.spider_count miter);
  ignore (Zx_simplify.full_reduce miter);
  match Zx_simplify.extract_permutation miter with
  | Some p -> Format.printf "reduces to wires with permutation %a => equivalent@." Perm.pp p
  | None -> print_endline "!! did not reduce"

(* ------------------------------------------------------------ Ablations *)

(* (a) Numerical tolerance: rotation angles perturbed by float noise (as
   produced by real compilation flows) defeat the DD's node merging when
   the interning tolerance is tighter than the noise, so the miter no
   longer collapses onto the identity — the effect behind the QFT rows of
   Table 1 (Section 6.2). *)
let ablation_tolerance () =
  print_endline "\n== Ablation (a): DD miter vs interning tolerance under angle noise ==";
  let noisy_qft n noise =
    let rng = Rng.make ~seed:9 in
    let c = ref (Circuit.create ~name:"noisy-qft" n) in
    for i = n - 1 downto 0 do
      c := Circuit.h !c i;
      for j = i - 1 downto 0 do
        let exact = Float.pi /. float_of_int (1 lsl (i - j)) in
        let eps = (Rng.float rng 2.0 -. 1.0) *. noise in
        c := Circuit.cp !c (Phase.of_float (exact +. eps)) j i
      done
    done;
    !c
  in
  let n = 10 in
  let exact = noisy_qft n 0.0 and noisy = noisy_qft n 1e-11 in
  List.iter
    (fun tol ->
      let r = Dd_checker.check_miter ~tol exact noisy in
      Printf.printf "tol=%.0e : %-14s peak %7d nodes, final %5d, %.3fs\n" tol
        (Equivalence.outcome_to_string r.Equivalence.outcome)
        r.Equivalence.peak_size r.Equivalence.final_size r.Equivalence.elapsed)
    [ 1e-9; 1e-13 ];
  print_endline
    "(loose tolerance absorbs the noise and keeps the miter at the identity; a tight\n\
    \ tolerance lets numerically distinct weights proliferate, growing the diagram\n\
    \ and losing the equivalence verdict)"

(* (b) The spider count never increases during the ZX check. *)
let ablation_spiders () =
  print_endline "\n== Ablation (b): spider count is non-increasing during ZX checking ==";
  let module Zx_graph = Oqec_zx.Zx_graph in
  let module Zx_circuit = Oqec_zx.Zx_circuit in
  let module Zx_simplify = Oqec_zx.Zx_simplify in
  let g = qft 8 in
  let g' = Compile.run (Architecture.manhattan) g in
  let a, b = Flatten.align g g' in
  let d = Zx_circuit.of_miter (Flatten.flatten a) (Flatten.flatten b) in
  let series = ref [ Zx_graph.spider_count d ] in
  let snap () = series := Zx_graph.spider_count d :: !series in
  ignore (Zx_simplify.spider_simp d);
  snap ();
  Zx_simplify.to_gh d;
  ignore (Zx_simplify.interior_clifford_simp d);
  snap ();
  ignore (Zx_simplify.pivot_gadget_simp d);
  snap ();
  ignore (Zx_simplify.full_reduce d);
  snap ();
  let s = List.rev !series in
  Printf.printf "qft-8 vs compiled: spiders %s\n"
    (String.concat " -> " (List.map string_of_int s));
  let rec non_increasing = function
    | a :: (b :: _ as rest) -> a >= b && non_increasing rest
    | _ -> true
  in
  Printf.printf "non-increasing: %b\n" (non_increasing s)

(* (c) Random stimuli refute faulty instances within a few runs. *)
let ablation_simulations opts =
  print_endline "\n== Ablation (c): simulations needed to refute faulty instances ==";
  let cases =
    [
      ("ghz-10", ghz 10);
      ("qft-8", qft 8);
      ("grover-4", grover ~seed:3 4);
      ("adder-4", ripple_adder 4);
      ("qwalk-5", random_walk ~steps:3 5);
    ]
  in
  List.iter
    (fun (name, g) ->
      let arch = Architecture.ring (Circuit.num_qubits g + 2) in
      let g' = Compile.run arch g in
      let broken = remove_gate ~seed:(opts.seed + 3) g' in
      let r = Qcec.check ~strategy:Qcec.Simulation ~sim_runs:16 ~seed:opts.seed g broken in
      Printf.printf "%-10s: %s after %d simulation(s)\n" name
        (Equivalence.outcome_to_string r.Equivalence.outcome)
        r.Equivalence.simulations)
    cases

(* (d) Alternating vs reference construction: peak DD sizes. *)
let ablation_oracle () =
  print_endline "\n== Ablation (d): alternating scheme vs reference construction ==";
  List.iter
    (fun (name, g) ->
      let arch = Architecture.ring (Circuit.num_qubits g + 1) in
      let g' = Compile.run arch g in
      let alt = Dd_checker.check_miter g g' in
      let ref_ = Dd_checker.check_reference g g' in
      Printf.printf "%-10s alternating: peak %7d (%.3fs) ; reference: peak %7d (%.3fs)\n" name
        alt.Equivalence.peak_size alt.Equivalence.elapsed ref_.Equivalence.peak_size
        ref_.Equivalence.elapsed)
    [ ("qft-8", qft 8); ("grover-4", grover ~seed:3 4); ("adder-3", ripple_adder 3) ]

(* ------------------------------------------------- DD engine statistics *)

(* Per-phase span totals (seconds) of a traced run, as a JSON object. *)
let spans_json sink =
  "{"
  ^ String.concat ","
      (List.map
         (fun (k, v) -> Printf.sprintf "%s:%.6f" (Equivalence.json_string k) v)
         (Engine.Trace.totals sink))
  ^ "}"

(* Memory-management behaviour of the DD package on representative miters:
   wall time alongside GC activity and compute-cache efficiency, written
   to BENCH_dd_stats.json for tracking across revisions.  The threshold
   is deliberately low so collections are exercised at these scaled-down
   instance sizes. *)
let dd_stats_bench () =
  let module Dd = Oqec_dd.Dd in
  print_endline "\n== DD engine statistics (GC + bounded compute tables) ==";
  let gc_threshold = 2048 in
  let cases =
    [
      ("qft-10", qft 10);
      ("grover-5", grover ~seed:3 5);
      ("qwalk-6", random_walk ~steps:6 6);
      ("adder-4", ripple_adder 4);
      ("graphstate-14", graph_state ~seed:3 14);
    ]
  in
  let rows =
    List.map
      (fun (name, g) ->
        let arch = Architecture.ring (Circuit.num_qubits g + 2) in
        let g' = Compile.run arch g in
        let sink = Engine.Trace.create () in
        let ctx = Engine.Ctx.make ~gc_threshold ~sink () in
        let t0 = Mclock.now () in
        let r =
          Engine.run ~ctx ~method_used:Equivalence.Alternating_dd (Dd_checker.scheme_checker ())
            g g'
        in
        let dt = Mclock.now () -. t0 in
        let s = Option.get (Equivalence.dd_stats r) in
        Printf.printf
          "%-14s %-12s %6.3fs  alloc %7d  live %6d  peak %6d  gc %3d  reclaimed %7d  \
           mm-hit %4.1f%%  add-hit %4.1f%%\n%!"
          name
          (Equivalence.outcome_to_string r.Equivalence.outcome)
          dt s.Dd.allocated s.Dd.live s.Dd.peak_live s.Dd.gc_runs s.Dd.gc_reclaimed
          (100.0 *. Dd.hit_rate s.Dd.mm)
          (100.0 *. Dd.hit_rate s.Dd.add_);
        (name, dt, r, s, sink))
      cases
  in
  let oc = open_out "BENCH_dd_stats.json" in
  output_string oc "[\n";
  List.iteri
    (fun i (name, dt, r, s, sink) ->
      Printf.fprintf oc
        "  {\"benchmark\":%S,\"outcome\":%S,\"elapsed\":%.6f,\"gc_threshold\":%d,\"dd\":%s,\"spans\":%s}%s\n"
        name
        (Equivalence.outcome_to_string r.Equivalence.outcome)
        dt gc_threshold (Dd.stats_to_json s) (spans_json sink)
        (if i < List.length rows - 1 then "," else ""))
    rows;
  output_string oc "]\n";
  close_out oc;
  let total_gc = List.fold_left (fun acc (_, _, _, s, _) -> acc + s.Dd.gc_runs) 0 rows in
  let total_hits = List.fold_left (fun acc (_, _, _, s, _) -> acc + Dd.cache_hits s) 0 rows in
  Printf.printf "wrote BENCH_dd_stats.json (%d gc run(s), %d cache hit(s) in total)\n"
    total_gc total_hits

(* ---------------------------------------------------- Portfolio benchmark *)

(* Sequential Combined (the paper's emulation: 8-stimulus screen, then the
   alternating scheme) against the parallel portfolio on the same
   instances, written to BENCH_portfolio.json.

   The rare-fault instance targets the screen's blind spot: a Toffoli
   prepended to a reversible network fires only on stimuli with both
   control bits set, and with the chosen seed the first such stimulus has
   index 10 — past the 8-stimulus screen, within the portfolio's 16
   sharded stimuli.  Combined must run the whole agreeing screen before
   the DD scheme can refute; the portfolio races both from the start. *)
let portfolio_bench opts =
  print_endline "\n== Portfolio vs sequential Combined ==";
  let jobs = 2 in
  let sim_runs = 16 in
  let rare_fault g =
    let n = Circuit.num_qubits g in
    Circuit.append (Circuit.ccx (Circuit.create n) 0 1 2) g
  in
  let urf n gates = random_reversible ~seed:2 ~gates n in
  let cases =
    [
      ("qpe-exact-8-compiled", `Equivalent, qpe_exact ~seed:3 7,
       (compiled_instance opts "qpe-8" (qpe_exact ~seed:3 7)).derived);
      ("qft-10-compiled", `Equivalent, qft 10, (compiled_instance opts "qft-10" (qft 10)).derived);
      ("urf-8-rare-fault", `Not_equivalent, urf 8 120, rare_fault (urf 8 120));
      ("urf-9-rare-fault", `Not_equivalent, urf 9 200, rare_fault (urf 9 200));
      ("urf-10-rare-fault", `Not_equivalent, urf 10 300, rare_fault (urf 10 300));
    ]
  in
  let timeout = Float.max opts.timeout 30.0 in
  let rows =
    List.map
      (fun (name, expected, g, g') ->
        let t0 = Mclock.now () in
        let c = Qcec.check ~strategy:Qcec.Combined ~timeout ~sim_runs ~seed:1 g g' in
        let t_c = Mclock.now () -. t0 in
        let sink = Engine.Trace.create () in
        let t1 = Mclock.now () in
        let p =
          Qcec.check ~strategy:Qcec.Portfolio ~timeout ~sim_runs ~seed:1 ~jobs ~sink g g'
        in
        let t_p = Mclock.now () -. t1 in
        let winner = match p.Equivalence.winner with Some w -> w | None -> "-" in
        Printf.printf
          "%-20s combined %-15s %7.3fs | portfolio %-15s %7.3fs (winner %-14s) | speedup %5.2fx\n%!"
          name
          (Equivalence.outcome_to_string c.Equivalence.outcome)
          t_c
          (Equivalence.outcome_to_string p.Equivalence.outcome)
          t_p winner (t_c /. t_p);
        (name, expected, c, t_c, p, t_p, winner, sink))
      cases
  in
  let oc = open_out "BENCH_portfolio.json" in
  output_string oc "[\n";
  List.iteri
    (fun i (name, expected, c, t_c, p, t_p, winner, sink) ->
      Printf.fprintf oc
        "  {\"benchmark\":%S,\"expected\":%S,\"jobs\":%d,\
         \"combined\":{\"outcome\":%S,\"elapsed\":%.6f},\
         \"portfolio\":{\"outcome\":%S,\"elapsed\":%.6f,\"winner\":%S,\"spans\":%s},\
         \"speedup\":%.3f}%s\n"
        name
        (match expected with `Equivalent -> "equivalent" | `Not_equivalent -> "not equivalent")
        jobs
        (Equivalence.outcome_to_string c.Equivalence.outcome)
        t_c
        (Equivalence.outcome_to_string p.Equivalence.outcome)
        t_p winner (spans_json sink)
        (t_c /. t_p)
        (if i < List.length rows - 1 then "," else ""))
    rows;
  output_string oc "]\n";
  close_out oc;
  (* Combined hitting its timeout where the portfolio answers is the
     point of the parallel scheme, not a disagreement. *)
  let agreeing =
    List.for_all
      (fun (_, _, c, _, p, _, _, _) ->
        c.Equivalence.outcome = p.Equivalence.outcome
        || c.Equivalence.outcome = Equivalence.Timed_out)
      rows
  in
  let no_slower =
    List.length (List.filter (fun (_, _, _, t_c, _, t_p, _, _) -> t_p <= t_c) rows)
  in
  let best_faulty =
    List.fold_left
      (fun acc (_, expected, c, t_c, _, t_p, _, _) ->
        match (expected, c.Equivalence.outcome) with
        | `Not_equivalent, Equivalence.Not_equivalent -> Float.max acc (t_c /. t_p)
        | _ -> acc)
      0.0 rows
  in
  Printf.printf
    "wrote BENCH_portfolio.json (conclusive verdicts agree: %b; portfolio <= combined \
     on %d/%d; best conclusive non-equivalent speedup %.2fx)\n"
    agreeing no_slower (List.length rows) best_faulty

(* ----------------------------------------------------------- Trace smoke *)

(* A traced portfolio run written to BENCH_trace.json in Chrome
   trace_event format, with an internal shape check: the trace must carry
   spans from at least three distinct categories (engine + per-checker
   phases), or the instrumentation has regressed. *)
let trace_smoke () =
  print_endline "\n== Trace smoke: traced portfolio run ==";
  let g = qft 8 in
  let g' = Compile.run (Architecture.ring 10) g in
  let sink = Engine.Trace.create () in
  let r = Qcec.check ~strategy:Qcec.Portfolio ~sim_runs:16 ~seed:1 ~jobs:2 ~sink g g' in
  let oc = open_out "BENCH_trace.json" in
  output_string oc (Engine.Trace.to_chrome_json sink);
  output_char oc '\n';
  close_out oc;
  let events = Engine.Trace.events sink in
  let cats =
    List.sort_uniq compare
      (List.filter_map
         (function
           | Engine.Trace.Span { cat; _ } -> Some cat
           | Engine.Trace.Count _ -> None)
         events)
  in
  let spans, counts =
    List.fold_left
      (fun (s, c) -> function
        | Engine.Trace.Span _ -> (s + 1, c)
        | Engine.Trace.Count _ -> (s, c + 1))
      (0, 0) events
  in
  Printf.printf "verdict: %s (winner %s)\n"
    (Equivalence.outcome_to_string r.Equivalence.outcome)
    (match r.Equivalence.winner with Some w -> w | None -> "-");
  Printf.printf "wrote BENCH_trace.json: %d span(s), %d counter sample(s), categories: %s\n"
    spans counts (String.concat " " cats);
  if List.length cats < 3 then begin
    Printf.eprintf "trace smoke FAILED: expected >= 3 span categories\n";
    exit 1
  end

(* ------------------------------------------------------------- Fuzz smoke *)

(* A fixed-seed differential-fuzzing run (100 mixed-profile cases through
   every checker, shrinking enabled), written to BENCH_fuzz.json.  Any
   violation is a checker bug by construction, so failures are fatal. *)
let fuzz_smoke opts =
  let module Fuzz = Oqec_fuzz.Fuzz in
  print_endline "\n== Fuzz smoke: differential oracle over 100 random cases ==";
  let config =
    {
      Fuzz.default_config with
      Fuzz.runs = 100;
      seed = 7;
      shrink = true;
      timeout = opts.timeout;
    }
  in
  let stats = Fuzz.run ~log:print_endline config in
  let oc = open_out "BENCH_fuzz.json" in
  output_string oc (Fuzz.stats_to_json config stats);
  output_char oc '\n';
  close_out oc;
  Printf.printf
    "wrote BENCH_fuzz.json: %d cases, %d failures, %d mutations, %d faults in %.2fs\n"
    stats.Fuzz.cases stats.Fuzz.failures stats.Fuzz.mutations_applied
    stats.Fuzz.faults_injected stats.Fuzz.elapsed;
  if stats.Fuzz.failures > 0 then begin
    Printf.eprintf "fuzz smoke FAILED: %d checker disagreement(s)\n" stats.Fuzz.failures;
    exit 1
  end

(* -------------------------------------------------------------- ZX smoke *)

(* Differential benchmark of the two ZX simplification engines: the
   incremental worklist engine (the default behind Zx_simplify) against
   the preserved full-rescan baseline (Zx_simplify.Rescan).

   Two parts, both written to BENCH_zx.json:
   - timing rows on the Table-1 miters where the rescan engine's
     quadratic re-scans dominate (qwalk-6) or the graphs are large
     enough to expose worklist overhead (qft-12) — the incremental
     engine must be strictly faster on every row;
   - a verdict-agreement sweep over the committed fuzz corpus plus 100
     fixed-seed generated pairs (every profile, equivalent and faulty
     derivations) — any disagreement between the engines is fatal. *)
let zx_smoke opts =
  let module Zx_circuit = Oqec_zx.Zx_circuit in
  let module Zx_simplify = Oqec_zx.Zx_simplify in
  let module Fuzz_gen = Oqec_fuzz.Fuzz_gen in
  let module Fuzz_corpus = Oqec_fuzz.Fuzz_corpus in
  print_endline "\n== ZX smoke: incremental worklist vs rescan baseline ==";
  let reduce engine g g' =
    let a, b = Flatten.align g g' in
    let d = Zx_circuit.of_miter (Flatten.flatten a) (Flatten.flatten b) in
    let deadline = Mclock.now () +. opts.timeout in
    let stop () = Mclock.now () > deadline in
    let t0 = Mclock.now () in
    let completed = engine ~should_stop:stop d in
    let dt = Mclock.now () -. t0 in
    let outcome =
      if not completed then Equivalence.Timed_out
      else
        match Zx_simplify.extract_permutation d with
        | Some p when Perm.is_identity p -> Equivalence.Equivalent
        | Some _ -> Equivalence.Not_equivalent
        | None -> Equivalence.No_information
    in
    { time = dt; outcome }
  in
  let incremental ~should_stop d = Zx_simplify.full_reduce ~should_stop d in
  let rescan ~should_stop d = Zx_simplify.Rescan.full_reduce ~should_stop d in
  let failures = ref 0 in
  (* Timing rows. *)
  let timing =
    List.map
      (fun (name, g) ->
        let inst = compiled_instance opts name g in
        let inc = reduce incremental inst.original inst.derived in
        let res = reduce rescan inst.original inst.derived in
        (* A timed-out rescan makes the speedup a lower bound. *)
        let speedup = res.time /. inc.time in
        Printf.printf "%-10s incremental %8s | rescan %8s | speedup %s%.1fx\n%!" name
          (cell_to_string opts `Equivalent inc)
          (cell_to_string opts `Equivalent res)
          (if res.outcome = Equivalence.Timed_out then ">" else "")
          speedup;
        if inc.outcome <> Equivalence.Equivalent then begin
          incr failures;
          Printf.printf "  FAIL %s: incremental engine answered %s, expected equivalent\n"
            name
            (Equivalence.outcome_to_string inc.outcome)
        end;
        if inc.time >= res.time then begin
          incr failures;
          Printf.printf "  FAIL %s: incremental (%.3fs) not faster than rescan (%.3fs)\n"
            name inc.time res.time
        end;
        (name, inc, res, speedup))
      [ ("qwalk-6", random_walk ~steps:6 6); ("qft-12", qft 12) ]
  in
  (* Verdict agreement: corpus replays plus fixed-seed generated pairs. *)
  let mismatches = ref 0 in
  let agree name g g' =
    let inc = reduce incremental g g' in
    let res = reduce rescan g g' in
    if inc.outcome <> res.outcome then begin
      incr mismatches;
      Printf.printf "  MISMATCH %s: incremental %s, rescan %s\n" name
        (Equivalence.outcome_to_string inc.outcome)
        (Equivalence.outcome_to_string res.outcome)
    end
  in
  let corpus_dir = "corpus" in
  let corpus = Fuzz_corpus.load corpus_dir in
  List.iter
    (fun e ->
      let g, g' = Fuzz_corpus.load_pair corpus_dir e in
      agree ("corpus:" ^ e.Fuzz_corpus.id) g g')
    corpus;
  if corpus = [] then
    Printf.printf "  (corpus directory %S empty or absent — generated pairs only)\n"
      corpus_dir;
  let generated = 100 in
  let rng = Rng.make ~seed:11 in
  let profiles = Fuzz_gen.all_profiles in
  for i = 0 to generated - 1 do
    let profile = List.nth profiles (i mod List.length profiles) in
    let n = 2 + Rng.int rng 5 in
    let gates = 5 + Rng.int rng 20 in
    let g = Fuzz_gen.circuit profile rng ~num_qubits:n ~gates in
    let g' =
      if i mod 2 = 0 then Compile.run (Architecture.ring (n + 2)) g
      else remove_gate ~seed:(1000 + i) g
    in
    agree (Printf.sprintf "gen-%03d" i) g g'
  done;
  Printf.printf "agreement: %d corpus + %d generated pairs, %d mismatch(es)\n"
    (List.length corpus) generated !mismatches;
  let oc = open_out "BENCH_zx.json" in
  output_string oc "{\n  \"timing\": [\n";
  List.iteri
    (fun i (name, inc, res, speedup) ->
      Printf.fprintf oc
        "    {\"benchmark\":%S,\
         \"incremental\":{\"outcome\":%S,\"elapsed\":%.6f},\
         \"rescan\":{\"outcome\":%S,\"elapsed\":%.6f},\
         \"speedup\":%.3f}%s\n"
        name
        (Equivalence.outcome_to_string inc.outcome)
        inc.time
        (Equivalence.outcome_to_string res.outcome)
        res.time speedup
        (if i < List.length timing - 1 then "," else ""))
    timing;
  Printf.fprintf oc
    "  ],\n  \"agreement\": {\"corpus\": %d, \"generated\": %d, \"mismatches\": %d}\n}\n"
    (List.length corpus) generated !mismatches;
  close_out oc;
  Printf.printf "wrote BENCH_zx.json\n";
  if !mismatches > 0 || !failures > 0 then begin
    Printf.eprintf "zx smoke FAILED: %d verdict mismatch(es), %d timing failure(s)\n"
      !mismatches !failures;
    exit 1
  end

(* ------------------------------------------------------------ Cert smoke *)

(* Certificate emission plus independent validation, written to
   BENCH_cert.json:

   - Table-1 compiled miters checked with the ZX strategy, plus one
     deliberately broken pair refuted by simulation — every verdict
     must carry a certificate that survives a serialize/parse round
     trip and passes the independent validator; rows record the
     certificate size and validation time;
   - a sweep of the committed fuzz corpus through the combined
     checker — any attached certificate failing validation is fatal. *)
let cert_smoke opts =
  let module Cert = Oqec_cert.Cert in
  let module Validate = Oqec_cert.Cert_validate in
  let module Fuzz_corpus = Oqec_fuzz.Fuzz_corpus in
  print_endline "\n== Cert smoke: verdict certificates + independent validator ==";
  let failures = ref 0 in
  let steps_of = function
    | Cert.Zx_proof { steps; _ } -> List.length steps
    | Cert.Witness _ -> 0
  in
  let certify name strategy expected g g' =
    let t0 = Mclock.now () in
    let r = Qcec.check ~strategy ~timeout:opts.timeout ~sim_runs:16 ~seed:opts.seed g g' in
    let check_time = Mclock.now () -. t0 in
    let outcome = r.Equivalence.outcome in
    if outcome <> expected then begin
      incr failures;
      Printf.printf "  FAIL %s: expected %s, engine answered %s\n" name
        (Equivalence.outcome_to_string expected)
        (Equivalence.outcome_to_string outcome)
    end;
    match r.Equivalence.certificate with
    | None ->
        incr failures;
        Printf.printf "  FAIL %s: verdict carries no certificate\n" name;
        (name, outcome, "none", 0, 0, check_time, 0.0)
    | Some c ->
        let wire = Cert.serialize c in
        let t1 = Mclock.now () in
        let verdict =
          match Cert.parse wire with
          | Error e -> Error ("round trip: " ^ e)
          | Ok c' when not (Cert.equal c c') -> Error "round trip: not a fixpoint"
          | Ok c' -> Validate.validate c'
        in
        let validate_time = Mclock.now () -. t1 in
        (match verdict with
        | Ok () -> ()
        | Error e ->
            incr failures;
            Printf.printf "  FAIL %s: %s\n" name e);
        let kind =
          match c with Cert.Zx_proof _ -> "zx-proof" | Cert.Witness _ -> "witness"
        in
        Printf.printf "%-14s %-14s %-8s %5d steps %8d bytes  check %.3fs  validate %.3fs\n%!"
          name
          (Equivalence.outcome_to_string outcome)
          kind (steps_of c) (String.length wire) check_time validate_time;
        (name, outcome, kind, steps_of c, String.length wire, check_time, validate_time)
  in
  let rows =
    List.map
      (fun (name, g) ->
        let inst = compiled_instance opts name g in
        certify name Qcec.Zx Equivalence.Equivalent inst.original inst.derived)
      [ ("ghz-6", ghz 6); ("qft-4", qft 4); ("graphstate-6", graph_state ~seed:3 6) ]
    @ [
        (let g = ghz 5 in
         certify "ghz-5-broken" Qcec.Simulation Equivalence.Not_equivalent g
           (remove_gate ~seed:5 g));
      ]
  in
  (* Corpus sweep: every decisive combined-checker verdict on a committed
     regression pair must be certifiable (on demand when the winning
     checker attaches none, as `oqec check --certify` does), and the
     certificate must pass independent validation. *)
  let corpus_dir = "corpus" in
  let corpus = Fuzz_corpus.load corpus_dir in
  let certified = ref 0 in
  List.iter
    (fun e ->
      let g, g' = Fuzz_corpus.load_pair corpus_dir e in
      let r =
        Qcec.check ~strategy:Qcec.Combined ~timeout:opts.timeout ~sim_runs:16
          ~seed:opts.seed g g'
      in
      let outcome = r.Equivalence.outcome in
      match (outcome, Certify.of_report r g g') with
      | (Equivalence.Equivalent | Equivalence.Not_equivalent), Ok c -> (
          incr certified;
          match Validate.validate c with
          | Ok () -> ()
          | Error err ->
              incr failures;
              Printf.printf "  FAIL corpus:%s: %s\n" e.Fuzz_corpus.id err)
      | (Equivalence.Equivalent | Equivalence.Not_equivalent), Error err ->
          incr failures;
          Printf.printf "  FAIL corpus:%s: decisive verdict not certifiable: %s\n"
            e.Fuzz_corpus.id err
      | _ -> ())
    corpus;
  if corpus = [] then
    Printf.printf "  (corpus directory %S empty or absent — Table-1 rows only)\n"
      corpus_dir;
  Printf.printf "corpus: %d entries, %d certified, %d total failure(s)\n"
    (List.length corpus) !certified !failures;
  let oc = open_out "BENCH_cert.json" in
  output_string oc "{\n  \"instances\": [\n";
  List.iteri
    (fun i (name, outcome, kind, steps, bytes, check_time, validate_time) ->
      Printf.fprintf oc
        "    {\"benchmark\":%S,\"outcome\":%S,\"kind\":%S,\"steps\":%d,\"bytes\":%d,\
         \"elapsed\":%.6f,\"validate_elapsed\":%.6f}%s\n"
        name
        (Equivalence.outcome_to_string outcome)
        kind steps bytes check_time validate_time
        (if i < List.length rows - 1 then "," else ""))
    rows;
  Printf.fprintf oc
    "  ],\n  \"corpus\": {\"entries\": %d, \"certified\": %d, \"failures\": %d}\n}\n"
    (List.length corpus) !certified !failures;
  close_out oc;
  Printf.printf "wrote BENCH_cert.json\n";
  if !failures > 0 then begin
    Printf.eprintf "cert smoke FAILED: %d failure(s)\n" !failures;
    exit 1
  end

(* ------------------------------------------------------- Param smoke *)

(* Symbolic-parameter checking: the ZX symbolic proof against the
   K-instantiation fallback on the same equivalent-by-construction
   pairs, written to BENCH_param.json.

   Self-checking: every generated pair must be proven symbolically (the
   ZX rules are phase-linear, so mutation-preserved pairs cancel for
   every assignment) AND agree at each of the K concrete instantiations;
   the pinned refutable pair must be refuted with the assignment that
   [--param-seed 7] reproduces.  Any disagreement is fatal. *)
let param_smoke opts =
  let module Fuzz_gen = Oqec_fuzz.Fuzz_gen in
  let module Fuzz_mutate = Oqec_fuzz.Fuzz_mutate in
  print_endline "\n== Param smoke: ZX symbolic proof vs instantiation oracle ==";
  let failures = ref 0 in
  let instantiations = Param_checker.default_instantiations in
  let rows =
    List.map
      (fun i ->
        let name = Printf.sprintf "sym-%02d" i in
        let rng = Rng.make ~seed:(4000 + i) in
        let g =
          Fuzz_gen.circuit Fuzz_gen.Parameterized (Rng.split_at rng 0)
            ~num_qubits:3 ~gates:(8 + (2 * i))
        in
        let g' =
          List.fold_left
            (fun acc j ->
              let kinds = Fuzz_mutate.preserving_kinds in
              let kind = List.nth kinds ((i + j) mod List.length kinds) in
              match Fuzz_mutate.apply kind (Rng.split_at rng (10 + j)) acc with
              | Some m -> m
              | None -> acc)
            g [ 0; 1 ]
        in
        let t0 = Mclock.now () in
        let sym = Param_checker.check ~timeout:opts.timeout ~seed:opts.seed g g' in
        let t_sym = Mclock.now () -. t0 in
        (match sym.Equivalence.symbolic with
        | Some (Equivalence.Proven_symbolic _)
          when sym.Equivalence.outcome = Equivalence.Equivalent ->
            ()
        | _ ->
            incr failures;
            Printf.printf "  FAIL %s: expected a symbolic proof, got %s\n" name
              (Equivalence.outcome_to_string sym.Equivalence.outcome));
        let vars = Param_checker.joint_variables g g' in
        let t0 = Mclock.now () in
        for k = 0 to instantiations - 1 do
          let asg =
            Param_checker.assignment ~param_seed:Param_checker.default_param_seed
              k vars
          in
          let r =
            Qcec.check ~timeout:opts.timeout ~seed:opts.seed
              (Circuit.instantiate asg g)
              (Circuit.instantiate asg g')
          in
          if r.Equivalence.outcome <> Equivalence.Equivalent then begin
            incr failures;
            Printf.printf "  FAIL %s: instantiation %d disagrees (%s)\n" name k
              (Equivalence.outcome_to_string r.Equivalence.outcome)
          end
        done;
        let t_inst = Mclock.now () -. t0 in
        Printf.printf "%-8s %d vars | symbolic %-14s %7.3fs | %d instantiations %7.3fs\n%!"
          name (List.length vars)
          (Equivalence.outcome_to_string sym.Equivalence.outcome)
          t_sym instantiations t_inst;
        (name, List.length vars, sym.Equivalence.outcome, t_sym, t_inst))
      [ 0; 1; 2; 3; 4; 5 ]
  in
  (* The pinned refutation: rz(alpha) against rz(-alpha) is refuted at
     the first instantiation of the default seed, and the reported
     assignment must be the one [assignment ~param_seed:7 0] computes. *)
  let g =
    Oqec_qasm.Qasm.circuit_of_string
      "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nparameter alpha;\nqreg q[2];\n\
       h q[0];\nrz(alpha) q[0];\ncx q[0],q[1];\n"
  in
  let g' =
    Oqec_qasm.Qasm.circuit_of_string
      "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nparameter alpha;\nqreg q[2];\n\
       h q[0];\nrz(-alpha) q[0];\ncx q[0],q[1];\n"
  in
  let t0 = Mclock.now () in
  let refuted = Param_checker.check ~timeout:opts.timeout ~seed:opts.seed g g' in
  let t_refute = Mclock.now () -. t0 in
  let refuting_ok =
    refuted.Equivalence.outcome = Equivalence.Not_equivalent
    &&
    match refuted.Equivalence.symbolic with
    | Some (Equivalence.Instantiated { refuting = Some asg; _ }) ->
        asg
        = Param_checker.assignment ~param_seed:Param_checker.default_param_seed 0
            [ "alpha" ]
    | _ -> false
  in
  if not refuting_ok then begin
    incr failures;
    Printf.printf "  FAIL refutation: expected the pinned seed-7 assignment, got %s\n"
      (Equivalence.outcome_to_string refuted.Equivalence.outcome)
  end;
  Printf.printf "%-8s refuted in %7.3fs (pinned assignment: %b)\n%!" "refute"
    t_refute refuting_ok;
  let oc = open_out "BENCH_param.json" in
  output_string oc "{\n  \"instances\": [\n";
  List.iteri
    (fun i (name, vars, outcome, t_sym, t_inst) ->
      Printf.fprintf oc
        "    {\"benchmark\":%S,\"variables\":%d,\"outcome\":%S,\
         \"elapsed\":%.6f,\"instantiated_elapsed\":%.6f,\"instantiations\":%d}%s\n"
        name vars
        (Equivalence.outcome_to_string outcome)
        t_sym t_inst instantiations
        (if i < List.length rows - 1 then "," else ""))
    rows;
  Printf.fprintf oc
    "  ],\n\
    \  \"refutation\": {\"outcome\": %S, \"pinned_assignment\": %b, \"elapsed\": \
     %.6f},\n\
    \  \"failures\": %d\n\
     }\n"
    (Equivalence.outcome_to_string refuted.Equivalence.outcome)
    refuting_ok t_refute !failures;
  close_out oc;
  Printf.printf "wrote BENCH_param.json\n";
  if !failures > 0 then begin
    Printf.eprintf "param smoke FAILED: %d disagreement(s)\n" !failures;
    exit 1
  end

(* ---------------------------------------------------- Arena DD benchmark *)

(* The DD package on the DD-heavy Table-1 miters, plus the streamed
   large-circuit tier (generator-backed twin pairs far larger than the
   batch representation is meant for), written to BENCH_dd_arena.json.

   Self-checking: every miter must be proven equivalent and the streamed
   twin pair too (fatal otherwise); the process peak RSS is recorded so
   the baseline gate catches memory regressions (an arena whose capacity
   grows with total allocations instead of live size). *)
let dd_arena_bench opts =
  print_endline "\n== Arena DD package: miters and streamed tier ==";
  let failures = ref 0 in
  let expect_equivalent name outcome =
    if outcome <> Equivalence.Equivalent then begin
      incr failures;
      Printf.printf "  FAIL %s: expected equivalent, got %s\n" name
        (Equivalence.outcome_to_string outcome)
    end
  in
  (* DD-heavy miters: the alternating scheme alone (no simulation
     screen), so the whole wall time is DD manipulation. *)
  let miter_rows =
    List.map
      (fun (name, g) ->
        let inst = compiled_instance opts name g in
        let t0 = Mclock.now () in
        let r =
          Qcec.check ~strategy:Qcec.Alternating ~timeout:opts.timeout ~seed:opts.seed
            inst.original inst.derived
        in
        let dt = Mclock.now () -. t0 in
        expect_equivalent name r.Equivalence.outcome;
        Printf.printf "%-16s %-14s %7.3fs\n%!" name
          (Equivalence.outcome_to_string r.Equivalence.outcome)
          dt;
        (name, r.Equivalence.outcome, dt))
      [
        ("qft-12", qft 12);
        ("qpe-exact-11", qpe_exact ~seed:3 10);
        ("qwalk-6", random_walk ~steps:6 6);
        ("graphstate-14", graph_state ~seed:3 14);
      ]
  in
  (* Streamed tier: a twin pair produced by the generator with barrier
     sync points, checked straight off the files.  Far larger than the
     miter rows — this is where the flat node store pays. *)
  let stream_gates = match opts.scale with Small -> 100_000 | Paper -> 1_000_000 in
  let emit twin =
    let path = Filename.temp_file "oqec_bench" ".qasm" in
    let oc = open_out path in
    stream_qasm ~seed:11 ~qubits:8 ~gates:stream_gates ~barrier_every:500 ~twin oc;
    close_out oc;
    path
  in
  let base = emit false and twin = emit true in
  let stream_outcome, stream_dt =
    Fun.protect
      ~finally:(fun () ->
        Sys.remove base;
        Sys.remove twin)
      (fun () ->
        let t0 = Mclock.now () in
        let r = Stream_checker.check base twin in
        let dt = Mclock.now () -. t0 in
        Printf.printf "stream-arena     %-14s %7.3fs (%d gates, twin pair)\n%!"
          (Equivalence.outcome_to_string r.Equivalence.outcome)
          dt stream_gates;
        (r.Equivalence.outcome, dt))
  in
  expect_equivalent "stream-twin" stream_outcome;
  let mem_peak_kb = Option.value ~default:0 (Meminfo.vm_hwm_kb ()) in
  Printf.printf "peak RSS %d kB\n" mem_peak_kb;
  let oc = open_out "BENCH_dd_arena.json" in
  output_string oc "{\n  \"miters\": [\n";
  List.iteri
    (fun i (name, outcome, dt) ->
      Printf.fprintf oc
        "    {\"benchmark\":%S,\"arena\":{\"outcome\":%S,\"elapsed\":%.6f}}%s\n" name
        (Equivalence.outcome_to_string outcome)
        dt
        (if i < List.length miter_rows - 1 then "," else ""))
    miter_rows;
  Printf.fprintf oc
    "  ],\n  \"stream\": [\n\
    \    {\"benchmark\":\"stream-arena\",\"gates\":%d,\"outcome\":%S,\"elapsed\":%.6f}\n\
    \  ],\n  \"mem_peak_kb\": %d,\n  \"failures\": %d\n}\n"
    stream_gates
    (Equivalence.outcome_to_string stream_outcome)
    stream_dt mem_peak_kb !failures;
  close_out oc;
  Printf.printf "wrote BENCH_dd_arena.json\n";
  if !failures > 0 then begin
    Printf.eprintf "dd-arena FAILED: %d failure(s)\n" !failures;
    exit 1
  end

(* ---------------------------------------- Application-scheme benchmark *)

(* All four concrete application schemes plus the profile-guided auto
   mode on the DD-heavy compiled Table-1 miters, written to
   BENCH_dd_schemes.json.  The measured winners are persisted as the
   dispatch table (bench/dispatch.json) that [--dd-scheme auto]
   consults, so the profiling run and the profile consumer can never
   drift: auto is timed against the table this very run just wrote.

   Self-checking:
   - every scheme must agree on every conclusive verdict (fatal — a
     scheme only reorders gate applications, it must never change the
     answer; a timeout is not a disagreement);
   - auto must match or beat alternating on every row, within a noise
     allowance (fatal otherwise — the fallback for unseen fingerprints
     IS alternating, so auto being slower means the table misfired);
   - at least two rows must improve >= 1.5x under some non-alternating
     scheme (fatal otherwise — on compiled instances |G'| >> |G|, so
     strict 1:1 alternation starves the short side and the scheme
     family is the point of the refactor). *)
let dd_schemes_bench opts =
  print_endline "\n== DD application schemes on compiled Table-1 miters ==";
  let failures = ref 0 in
  let conclusive = function
    | Equivalence.Equivalent | Equivalence.Not_equivalent -> true
    | Equivalence.No_information | Equivalence.Timed_out -> false
  in
  let time ?table scheme inst =
    let t0 = Mclock.now () in
    let r =
      Qcec.check ~strategy:Qcec.Alternating ~timeout:opts.timeout ~seed:opts.seed
        ~scheme ?table inst.original inst.derived
    in
    (Mclock.now () -. t0, r.Equivalence.outcome, r.Equivalence.peak_size)
  in
  (* Concrete schemes first; their winners become the dispatch table. *)
  let measured =
    List.map
      (fun (name, g) ->
        let inst = compiled_instance opts name g in
        let runs = List.map (fun s -> (s, time s inst)) Dd_scheme.all in
        (match List.filter (fun (_, (_, o, _)) -> conclusive o) runs with
        | [] -> ()
        | (s0, (_, o0, _)) :: rest ->
            List.iter
              (fun (s, (_, o, _)) ->
                if o <> o0 then begin
                  incr failures;
                  Printf.printf "  FAIL %s: %s says %s but %s says %s\n" name
                    (Dd_scheme.to_string s)
                    (Equivalence.outcome_to_string o)
                    (Dd_scheme.to_string s0)
                    (Equivalence.outcome_to_string o0)
                end)
              rest);
        let best =
          List.fold_left
            (fun acc ((_, (dt, o, _)) as r) ->
              if not (conclusive o) then acc
              else
                match acc with
                | Some (_, (best_dt, _, _)) when best_dt <= dt -> acc
                | _ -> Some r)
            None runs
        in
        (name, inst, runs, best))
      [
        ("qft-12", qft 12);
        ("qpe-exact-11", qpe_exact ~seed:3 10);
        ("qwalk-6", random_walk ~steps:6 6);
        ("graphstate-14", graph_state ~seed:3 14);
      ]
  in
  (* Persist the winners: one entry per distinct fingerprint (first row
     wins on a collision — the rows are fixed, so a collision means the
     instances are structurally indistinguishable anyway). *)
  let table =
    List.fold_left
      (fun acc (_, inst, _, best) ->
        match best with
        | None -> acc
        | Some (s, _) ->
            let fp = Dd_dispatch.fingerprint inst.original inst.derived in
            if List.exists (fun e -> e.Dd_dispatch.fingerprint = fp) acc then acc
            else acc @ [ { Dd_dispatch.fingerprint = fp; scheme = s } ])
      [] measured
  in
  let dispatch_path =
    if Sys.file_exists "bench" && Sys.is_directory "bench" then Dd_dispatch.default_path
    else Filename.basename Dd_dispatch.default_path
  in
  Dd_dispatch.save dispatch_path table;
  Printf.printf "wrote %s (%d entr%s)\n" dispatch_path (List.length table)
    (if List.length table = 1 then "y" else "ies");
  (* Auto against the freshly written table, plus the per-row summary. *)
  let rows =
    List.map
      (fun (name, inst, runs, best) ->
        let auto = time ~table Dd_scheme.Auto inst in
        let resolved = Dd_dispatch.choose ~table inst.original inst.derived in
        let t_auto, o_auto, _ = auto in
        let t_alt, o_alt, _ = List.assoc Dd_scheme.Alternating runs in
        (match List.filter (fun (_, (_, o, _)) -> conclusive o) runs with
        | (_, (_, o0, _)) :: _ when conclusive o_auto && o_auto <> o0 ->
            incr failures;
            Printf.printf "  FAIL %s: auto says %s but the concrete schemes say %s\n"
              name
              (Equivalence.outcome_to_string o_auto)
              (Equivalence.outcome_to_string o0)
        | _ -> ());
        if conclusive o_alt && not (conclusive o_auto) then begin
          incr failures;
          Printf.printf "  FAIL %s: auto %s where alternating concluded\n" name
            (Equivalence.outcome_to_string o_auto)
        end;
        if conclusive o_alt && t_auto > (t_alt *. 1.25) +. 0.1 then begin
          incr failures;
          Printf.printf "  FAIL %s: auto %.3fs slower than alternating %.3fs\n" name
            t_auto t_alt
        end;
        (* Best non-alternating speedup over alternating; a timed-out
           alternating run makes it a lower bound. *)
        let speedup =
          List.fold_left
            (fun acc (s, (dt, o, _)) ->
              if s = Dd_scheme.Alternating || not (conclusive o) then acc
              else Float.max acc (t_alt /. dt))
            0.0 runs
        in
        List.iter
          (fun (s, (dt, o, peak)) ->
            Printf.printf "%-16s %-12s %-14s %7.3fs  peak %7d\n%!" name
              (Dd_scheme.to_string s)
              (Equivalence.outcome_to_string o)
              dt peak)
          (runs @ [ (Dd_scheme.Auto, auto) ]);
        Printf.printf "%-16s best %s, non-alternating speedup %s%.2fx (auto -> %s)\n%!"
          name
          (match best with Some (s, _) -> Dd_scheme.to_string s | None -> "-")
          (if conclusive o_alt then "" else ">=")
          speedup
          (Dd_scheme.to_string resolved);
        (name, runs, auto, resolved, speedup))
      measured
  in
  let fast = List.filter (fun (_, _, _, _, s) -> s >= 1.5) rows in
  Printf.printf "rows at >= 1.5x under a non-alternating scheme: %d/%d%s\n"
    (List.length fast) (List.length rows)
    (match fast with
    | [] -> ""
    | _ -> " (" ^ String.concat " " (List.map (fun (n, _, _, _, _) -> n) fast) ^ ")");
  let oc = open_out "BENCH_dd_schemes.json" in
  output_string oc "{\n  \"rows\": [\n";
  let scheme_cell (dt, o, peak) =
    (* A timed-out wall time only measures where the deadline poll
       landed inside a long multiply, so it stays out of the gated
       "elapsed" key. *)
    Printf.sprintf "{\"outcome\":%S,\"%s\":%.6f,\"peak_size\":%d}"
      (Equivalence.outcome_to_string o)
      (if conclusive o then "elapsed" else "elapsed_timeout")
      dt peak
  in
  List.iteri
    (fun i (name, runs, auto, resolved, speedup) ->
      Printf.fprintf oc "    {\"benchmark\":%S,%s,\"auto\":%s,\"resolved\":%S,\
                         \"best_speedup_vs_alternating\":%.3f}%s\n"
        name
        (String.concat ","
           (List.map
              (fun (s, cell) ->
                Printf.sprintf "\"%s\":%s" (Dd_scheme.to_string s) (scheme_cell cell))
              runs))
        (scheme_cell auto)
        (Dd_scheme.to_string resolved)
        speedup
        (if i < List.length rows - 1 then "," else ""))
    rows;
  Printf.fprintf oc
    "  ],\n  \"dispatch_entries\": %d,\n  \"rows_ge_1_5x\": %d,\n  \"failures\": %d\n}\n"
    (List.length table) (List.length fast) !failures;
  close_out oc;
  Printf.printf "wrote BENCH_dd_schemes.json\n";
  if !failures > 0 || List.length fast < 2 then begin
    Printf.eprintf "dd-schemes FAILED: %d failure(s), %d/%d row(s) at >= 1.5x\n"
      !failures (List.length fast) (List.length rows);
    exit 1
  end

(* ------------------------------------------------------- Micro (Bechamel) *)

let micro () =
  print_endline "\n== Bechamel micro-benchmarks ==";
  let open Bechamel in
  let module Dd = Oqec_dd.Dd in
  let module Dd_circuit = Oqec_dd.Dd_circuit in
  let module Zx_circuit = Oqec_zx.Zx_circuit in
  let module Zx_simplify = Oqec_zx.Zx_simplify in
  let ghz8 = ghz 8 and qft6 = qft 6 in
  let grouped =
    Test.make_grouped ~name:"oqec" ~fmt:"%s %s"
      [
        Test.make ~name:"dd: ghz-8 miter check"
          (Staged.stage (fun () -> ignore (Dd_checker.check_miter ghz8 ghz8)));
        Test.make ~name:"dd: qft-6 circuit build"
          (Staged.stage (fun () ->
               let pkg = Dd.create () in
               ignore (Dd_circuit.of_circuit pkg qft6)));
        Test.make ~name:"zx: qft-6 miter full_reduce"
          (Staged.stage (fun () ->
               let d = Zx_circuit.of_miter qft6 qft6 in
               ignore (Zx_simplify.full_reduce d)));
        Test.make ~name:"sim: ghz-8 random stimulus"
          (Staged.stage (fun () -> ignore (Sim_checker.check ~runs:1 ghz8 ghz8)));
      ]
  in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:None () in
  let raw = Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ] grouped in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name est acc -> (name, est) :: acc) results [] in
  List.iter
    (fun (name, est) ->
      match Analyze.OLS.estimates est with
      | Some [ t ] -> Printf.printf "%-36s %12.1f ns/run\n" name t
      | Some _ | None -> Printf.printf "%-36s (no estimate)\n" name)
    (List.sort compare rows)

(* ------------------------------------------- Checker-service benchmark *)

(* Cold vs warm latency through the resident service plus throughput at
   1/2/4 concurrent submission streams, written to BENCH_serve.json.

   Three temperatures per DD-heavy compiled Table-1 instance, all
   against one long-lived [Server.Sync] instance:
   - cold:       first submission — parse, DD build, everything misses;
   - warm-dd:    identical resubmission with [fresh:true] — the verdict
                 cache is bypassed, so the check re-runs end to end and
                 the speedup isolates parse-cache + resident-DD-store
                 reuse (the point of the resident service);
   - warm-cache: plain resubmission — served from the verdict cache.

   Self-checking (exit 1):
   - every service verdict line must byte-match a direct [Qcec.check]
     run with the server's defaults (the protocol must never change an
     answer);
   - all three temperatures must agree with each other;
   - warm-cache must hit the verdict cache and beat cold on every row;
   - warm-dd must beat cold on at least two DD-heavy rows — resident
     state that makes repeat checks slower would defeat the service. *)
let serve_bench opts =
  print_endline "\n== Resident checker service: cold vs warm latency, throughput ==";
  let open Oqec_serve in
  let failures = ref 0 in
  (* Multi-controlled gates (Grover's oracle, the walk increment) are
     not QASM-representable; lower everything to the CX basis before
     serialising for the wire. *)
  let lower g = Decompose.to_cx_basis ~keep_swaps:false (Decompose.elementary g) in
  let instances =
    [
      compiled_instance opts "qft-12" (lower (qft 12));
      compiled_instance opts "qpe-exact-11" (lower (qpe_exact ~seed:3 10));
      compiled_instance opts "qwalk-6" (lower (random_walk ~steps:6 6));
      compiled_instance opts "graphstate-14" (lower (graph_state ~seed:3 14));
      compiled_instance opts "grover-5" (lower (grover ~seed:3 5));
    ]
  in
  let pairs =
    List.map
      (fun inst ->
        (inst, Oqec_qasm.Qasm.to_string inst.original, Oqec_qasm.Qasm.to_string inst.derived))
      instances
  in
  (* Latency rows use the pure-DD alternating strategy: the combined
     default spends most of its time in the simulation screen, which the
     resident store cannot help; alternating isolates DD reuse. *)
  let submit_line ?(fresh = false) l r =
    Printf.sprintf
      {|{"method":"submit","strategy":"alternating","left":%s,"right":%s,"timeout":%g%s}|}
      (Jsonv.escape l) (Jsonv.escape r) opts.timeout
      (if fresh then {|,"fresh":true|} else "")
  in
  let str j key =
    match Jsonv.member j key with Some (Jsonv.Str s) -> Some s | _ -> None
  in
  let verdict_of events =
    List.find_map
      (fun line ->
        match Jsonv.parse line with
        | j when str j "event" = Some "verdict" ->
            let cached =
              match Jsonv.member j "cached" with
              | Some (Jsonv.Bool b) -> b
              | _ -> false
            in
            Some
              ( Option.value ~default:"?" (str j "verdict"),
                Option.value ~default:"?" (str j "outcome"),
                cached )
        | _ -> None
        | exception Jsonv.Bad _ -> None)
      events
  in
  let latency_rows =
    List.map
      (fun (inst, l, r) ->
        let srv = Server.Sync.create () in
        let timed line =
          let t0 = Mclock.now () in
          let events, _ = Server.Sync.handle srv line in
          (Mclock.now () -. t0, verdict_of events)
        in
        let t_cold, v_cold = timed (submit_line l r) in
        let t_dd, v_dd = timed (submit_line ~fresh:true l r) in
        let t_cache, v_cache = timed (submit_line l r) in
        (* The server's own defaults (sim_runs 16, seed 1, combined). *)
        let direct =
          Qcec.check ~strategy:Qcec.Alternating ~timeout:opts.timeout ~sim_runs:16
            ~seed:1 inst.original inst.derived
        in
        let direct_line = Equivalence.verdict_line direct in
        let outcome =
          match (v_cold, v_dd, v_cache) with
          | Some (vc, oc, cc), Some (vd, _, cd), Some (vw, _, cw) ->
              if vc <> direct_line then begin
                incr failures;
                Printf.printf "  FAIL %s: service %S, one-shot %S\n" inst.name vc
                  direct_line
              end;
              if vd <> vc || vw <> vc then begin
                incr failures;
                Printf.printf "  FAIL %s: temperatures disagree\n" inst.name
              end;
              if cc || cd then begin
                incr failures;
                Printf.printf "  FAIL %s: unexpected verdict-cache hit\n" inst.name
              end;
              if not cw then begin
                incr failures;
                Printf.printf "  FAIL %s: expected a verdict-cache hit\n" inst.name
              end;
              oc
          | _ ->
              incr failures;
              Printf.printf "  FAIL %s: missing verdict event\n" inst.name;
              "?"
        in
        Printf.printf
          "%-16s %-14s cold %7.3fs | warm-dd %7.3fs (%5.2fx) | warm-cache %8.6fs\n%!"
          inst.name outcome t_cold t_dd (t_cold /. t_dd) t_cache;
        (inst.name, outcome, t_cold, t_dd, t_cache))
      pairs
  in
  let dd_wins =
    List.filter (fun (_, _, c, d, _) -> d < c) latency_rows |> List.length
  in
  let cache_wins =
    List.filter (fun (_, _, c, _, w) -> w < c) latency_rows |> List.length
  in
  (* Throughput: every pair submitted twice with [fresh:true] (forcing
     real checks) against a pool of 1, 2 and 4 worker domains. *)
  let throughput_rows =
    List.map
      (fun jobs ->
        let pool = Server.Pool.create ~cfg:{ Server.default_config with jobs } () in
        let mu = Mutex.create () in
        let verdicts = ref 0 and errors = ref [] in
        let emit line =
          Mutex.lock mu;
          (match Jsonv.parse line with
          | j when str j "event" = Some "verdict" -> incr verdicts
          | j when str j "event" = Some "error" -> errors := line :: !errors
          | _ -> ()
          | exception Jsonv.Bad _ -> ());
          Mutex.unlock mu
        in
        let t0 = Mclock.now () in
        List.iter
          (fun (_, l, r) ->
            for _ = 1 to 2 do
              Server.Pool.submit pool ~emit ~left:(Protocol.Inline l)
                ~right:(Protocol.Inline r)
                ~opts:
                  (* Domains contending for the allocator slow each
                     other down well beyond the sequential time; give
                     parallel checks generous headroom so the row
                     measures throughput, not deadline behaviour. *)
                  {
                    Protocol.default_options with
                    fresh = true;
                    timeout = Some (10.0 *. opts.timeout);
                  }
                ()
            done)
          pairs;
        Server.Pool.drain pool;
        let dt = Mclock.now () -. t0 in
        let n = 2 * List.length pairs in
        if !verdicts <> n || !errors <> [] then begin
          incr failures;
          Printf.printf "  FAIL throughput jobs=%d: %d/%d verdicts, %d error(s)\n"
            jobs !verdicts n (List.length !errors);
          List.iter (Printf.printf "    %s\n") !errors
        end;
        Printf.printf "throughput jobs=%d: %d checks in %7.3fs (%5.1f checks/s)\n%!"
          jobs n dt
          (float_of_int n /. dt);
        (jobs, n, dt))
      [ 1; 2; 4 ]
  in
  Printf.printf "warm-dd beats cold on %d/%d rows; verdict cache on %d/%d\n" dd_wins
    (List.length latency_rows) cache_wins
    (List.length latency_rows);
  let oc = open_out "BENCH_serve.json" in
  output_string oc "{\n  \"latency\": [\n";
  List.iteri
    (fun i (name, outcome, c, d, w) ->
      Printf.fprintf oc
        "    {\"benchmark\":%S,\"outcome\":%S,\
         \"cold\":{\"elapsed\":%.6f},\"warm_dd\":{\"elapsed\":%.6f},\
         \"warm_cache\":{\"elapsed\":%.6f},\"dd_speedup\":%.3f}%s\n"
        name outcome c d w (c /. d)
        (if i < List.length latency_rows - 1 then "," else ""))
    latency_rows;
  output_string oc "  ],\n  \"throughput\": [\n";
  List.iteri
    (fun i (jobs, n, dt) ->
      Printf.fprintf oc
        "    {\"benchmark\":\"throughput-%d\",\"jobs\":%d,\"checks\":%d,\
         \"outcome\":\"ok\",\"elapsed\":%.6f}%s\n"
        jobs jobs n dt
        (if i < List.length throughput_rows - 1 then "," else ""))
    throughput_rows;
  Printf.fprintf oc
    "  ],\n  \"dd_reuse_wins\": %d,\n  \"cache_wins\": %d,\n  \"failures\": %d\n}\n"
    dd_wins cache_wins !failures;
  close_out oc;
  Printf.printf "wrote BENCH_serve.json\n";
  if !failures > 0 || dd_wins < 2 || cache_wins < List.length latency_rows then begin
    Printf.eprintf
      "serve FAILED: %d failure(s), warm-dd wins %d/%d (need >= 2), cache wins \
       %d/%d (need all)\n"
      !failures dd_wins (List.length latency_rows) cache_wins
      (List.length latency_rows);
    exit 1
  end

(* ----------------------------------------------------------------- Main *)

let () =
  let rec split opts cmds = function
    | [] -> (opts, List.rev cmds)
    | "--paper" :: rest -> split { opts with scale = Paper } cmds rest
    | "--timeout" :: v :: rest -> split { opts with timeout = float_of_string v } cmds rest
    | "--seed" :: v :: rest -> split { opts with seed = int_of_string v } cmds rest
    | cmd :: rest -> split opts (cmd :: cmds) rest
  in
  let opts, cmds = split default_options [] (List.tl (Array.to_list Sys.argv)) in
  let run_ablations () =
    ablation_tolerance ();
    ablation_spiders ();
    ablation_simulations opts;
    ablation_oracle ()
  in
  let dispatch = function
    | "fig1" -> fig1 ()
    | "fig2" -> fig2 ()
    | "fig3" -> fig3 ()
    | "fig4" -> fig4 ()
    | "fig5" -> fig5 ()
    | "fig6" -> fig6 ()
    | "table1-compiled" ->
        run_table opts "Table 1 (top): compiled circuits" (compiled_suite opts)
    | "table1-optimized" ->
        run_table opts "Table 1 (bottom): optimized circuits" (optimized_suite opts)
    | "table-extended" -> run_extended opts
    | "ablations" -> run_ablations ()
    | "dd-stats" -> dd_stats_bench ()
    | "dd-arena" -> dd_arena_bench opts
    | "dd-schemes" -> dd_schemes_bench opts
    | "portfolio" -> portfolio_bench opts
    | "trace-smoke" -> trace_smoke ()
    | "fuzz-smoke" -> fuzz_smoke opts
    | "zx-smoke" -> zx_smoke opts
    | "cert-smoke" -> cert_smoke opts
    | "param-smoke" -> param_smoke opts
    | "serve" -> serve_bench opts
    | "micro" -> micro ()
    | "all" ->
        List.iter (fun f -> f ()) [ fig1; fig2; fig3; fig4; fig5; fig6 ];
        run_table opts "Table 1 (top): compiled circuits" (compiled_suite opts);
        run_table opts "Table 1 (bottom): optimized circuits" (optimized_suite opts);
        run_extended opts;
        run_ablations ();
        dd_stats_bench ();
        dd_arena_bench opts;
        dd_schemes_bench opts;
        portfolio_bench opts;
        trace_smoke ();
        fuzz_smoke opts;
        zx_smoke opts;
        cert_smoke opts;
        param_smoke opts;
        serve_bench opts
    | other ->
        Printf.eprintf
          "unknown command %S (use fig1..fig6, table1-compiled, table1-optimized, table-extended, ablations, dd-stats, dd-arena, dd-schemes, portfolio, trace-smoke, fuzz-smoke, zx-smoke, cert-smoke, param-smoke, serve, micro, all)\n"
          other;
        exit 2
  in
  match cmds with [] -> dispatch "all" | cmds -> List.iter dispatch cmds
