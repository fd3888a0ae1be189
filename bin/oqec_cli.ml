(* Command-line interface: check two QASM files for equivalence, inspect
   or generate benchmark circuits, and run the compilation flow. *)

open Oqec_base
open Oqec_circuit
open Oqec_qcec
open Cmdliner

(* ------------------------------------------------------------- Helpers *)

let load path =
  try Oqec_qasm.Qasm.circuit_of_file path
  with Oqec_qasm.Qasm.Parse_error msg ->
    Printf.eprintf "error: %s: %s\n" path msg;
    exit 3

(* Hidden test hook: deliberately corrupt the ZX worklist engine so the
   certificate chain can demonstrate its independence — the fooled
   engine reports a wrong verdict, and only [verify-cert] (or the fuzz
   oracle's certificate cross-check) catches it. *)
let set_engine_break_hook () =
  match Sys.getenv_opt "OQEC_CERT_BREAK" with
  | Some mode when mode <> "" -> Atomic.set Oqec_zx.Zx_worklist.break_hook (Some mode)
  | _ -> ()

let arch_of_string = function
  | "manhattan" -> Some Oqec_compile.Architecture.manhattan
  | s -> (
      match String.split_on_char ':' s with
      | [ "linear"; n ] -> Option.map Oqec_compile.Architecture.linear (int_of_string_opt n)
      | [ "ring"; n ] -> Option.map Oqec_compile.Architecture.ring (int_of_string_opt n)
      | [ "grid"; r; c ] -> (
          match (int_of_string_opt r, int_of_string_opt c) with
          | Some rows, Some cols -> Some (Oqec_compile.Architecture.grid ~rows ~cols)
          | _ -> None)
      | _ -> None)

let generator_of_string ~seed ~size = function
  | "ghz" -> Some (Oqec_workloads.Workloads.ghz size)
  | "graphstate" -> Some (Oqec_workloads.Workloads.graph_state ~seed size)
  | "qft" -> Some (Oqec_workloads.Workloads.qft size)
  | "qpe" -> Some (Oqec_workloads.Workloads.qpe_exact ~seed size)
  | "grover" -> Some (Oqec_workloads.Workloads.grover ~seed size)
  | "qwalk" -> Some (Oqec_workloads.Workloads.random_walk ~steps:size size)
  | "adder" -> Some (Oqec_workloads.Workloads.ripple_adder size)
  | "urf" -> Some (Oqec_workloads.Workloads.random_reversible ~seed ~gates:(20 * size) size)
  | _ -> None

(* ------------------------------------------------------------ check cmd *)

let strategy_conv =
  let parse s =
    match Qcec.strategy_of_string s with
    | Some st -> Ok st
    | None -> Error (`Msg (Printf.sprintf "unknown strategy %S" s))
  in
  Arg.conv (parse, fun ppf s -> Format.pp_print_string ppf (Qcec.strategy_to_string s))

let check_cmd =
  let file1 = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE1") in
  let file2 = Arg.(required & pos 1 (some file) None & info [] ~docv:"FILE2") in
  let strategy =
    Arg.(
      value
      & opt strategy_conv Qcec.Combined
      & info [ "s"; "strategy" ] ~docv:"STRATEGY"
          ~doc:
            "One of reference, alternating, simulation, zx, combined, clifford, \
             portfolio.  portfolio races the alternating-DD, ZX and sharded \
             random-stimuli checkers on separate domains and returns the first \
             conclusive answer (see --jobs).")
  in
  let timeout =
    Arg.(value & opt (some float) None & info [ "timeout" ] ~docv:"SECONDS")
  in
  let tol = Arg.(value & opt (some float) None & info [ "tolerance" ] ~docv:"EPS") in
  let sim_runs = Arg.(value & opt int 16 & info [ "sim-runs" ] ~docv:"N") in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED") in
  let jobs =
    Arg.(
      value
      & opt (some int) None
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Simulation shard count for --strategy portfolio (worker domains: N + 2).  \
             Defaults to the machine's recommended domain count minus two, clamped to \
             [1, 4].  Verdicts and counterexamples are independent of N.")
  in
  let gc_threshold =
    Arg.(
      value
      & opt (some int) None
      & info [ "gc-threshold" ] ~docv:"NODES"
          ~doc:
            "Live-node count beyond which the decision-diagram package garbage-collects \
             (0 collects after every gate application; default 65536).")
  in
  let dd_stats =
    Arg.(
      value & flag
      & info [ "dd-stats" ]
          ~doc:
            "Print decision-diagram engine statistics (allocated/live nodes, GC runs, \
             compute-cache hit rates) after the verdict.")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Emit the report (statistics included) as one JSON object.")
  in
  let verdict_only =
    Arg.(
      value & flag
      & info [ "verdict-only" ]
          ~doc:
            "Print only the canonical timing-free verdict line (outcome, method, \
             note).  Stable across repeated runs of the same check — the line the \
             serve protocol's verdict events carry, so service and one-shot runs can \
             be byte-compared.")
  in
  let approx =
    Arg.(
      value
      & opt (some float) None
      & info [ "approx" ] ~docv:"FIDELITY"
          ~doc:
            "Approximate equivalence: accept when the Hilbert-Schmidt fidelity \
             reaches $(docv) (uses the decision-diagram miter).")
  in
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Write an execution trace (per-phase spans and engine counters) to $(docv) \
             in Chrome trace_event JSON, loadable in chrome://tracing or Perfetto.")
  in
  let checkers =
    Arg.(
      value
      & opt (some string) None
      & info [ "checkers" ] ~docv:"LIST"
          ~doc:
            "Comma-separated checkers to race with --strategy portfolio: any of dd, zx, \
             sim, stab (default dd,zx,sim).")
  in
  let dd_scheme =
    Arg.(
      value
      & opt string "proportional"
      & info [ "dd-scheme" ] ~docv:"SCHEME"
          ~doc:
            "Application scheme of the DD miter — the policy deciding which side \
             contributes the next gate: $(b,alternating) (strict one-to-one, the \
             paper's baseline), $(b,proportional) (advance the side lagging in \
             relative progress; default), $(b,lookahead) (apply one gate from each \
             side speculatively and keep the smaller diagram — roughly twice the work \
             per step, but resistant to drift when the circuits' structures diverge), \
             $(b,cost) (proportional over per-gate growth weights) or $(b,auto) \
             (profile-guided: a structural fingerprint of the instance is looked up \
             in the dispatch table written by $(b,bench dd-schemes) — \
             $(b,OQEC_DISPATCH), else bench/dispatch.json, else the compiled-in \
             snapshot — falling back to alternating on unseen fingerprints).")
  in
  let stream =
    Arg.(
      value & flag
      & info [ "stream" ]
          ~doc:
            "Stream both files through the alternating-DD miter without materialising \
             the circuits: memory use is bounded by the diagram plus one input chunk \
             per side, so checks can run over files far larger than memory.  Implies \
             the alternating strategy; by default gates are interleaved proportionally \
             to input bytes consumed ($(b,--dd-scheme) adapts: alternating and \
             lookahead keep their semantics, cost and auto degrade to the \
             byte-proportional rule).  The streamed subset excludes measure and \
             layout metadata.")
  in
  let certify =
    Arg.(
      value
      & opt (some string) None
      & info [ "certify" ] ~docv:"FILE"
          ~doc:
            "Write a replayable certificate substantiating a conclusive verdict to \
             $(docv): a recorded ZX rewrite proof for equivalence, a refuting stimulus \
             witness for non-equivalence.  Re-check it with $(b,oqec verify-cert).  \
             Inconclusive verdicts produce no certificate; a conclusive verdict that \
             cannot be certified exits with code 4.")
  in
  let instantiations =
    Arg.(
      value
      & opt (some int) None
      & info [ "instantiations" ] ~docv:"K"
          ~doc:
            "Number of random concrete instantiations checked when the inputs carry \
             symbolic parameters and the ZX engine is inconclusive (default 10).  \
             Ignored for fully-concrete circuits.")
  in
  let param_seed =
    Arg.(
      value
      & opt (some int) None
      & info [ "param-seed" ] ~docv:"SEED"
          ~doc:
            "Seed of the random parameter instantiations (default 7).  Assignment k is \
             a pure function of (seed, k), so a reported refuting assignment is \
             reproducible from the printed seed alone.")
  in
  let run file1 file2 strategy timeout tol sim_runs seed jobs approx gc_threshold dd_stats
      json verdict_only trace checkers dd_scheme stream certify instantiations
      param_seed =
    set_engine_break_hook ();
    let scheme =
      match Dd_scheme.of_string dd_scheme with
      | Some s -> s
      | None ->
          Printf.eprintf
            "error: --dd-scheme must be alternating, proportional, lookahead, cost or \
             auto (got %S)\n"
            dd_scheme;
          exit 3
    in
    let table =
      match scheme with Dd_scheme.Auto -> Some (Dd_dispatch.default_table ()) | _ -> None
    in
    (match gc_threshold with
    | Some t when t < 0 ->
        Printf.eprintf "error: --gc-threshold must be >= 0 (got %d)\n" t;
        exit 3
    | _ -> ());
    (match jobs with
    | Some j when j < 1 ->
        Printf.eprintf "error: --jobs must be >= 1 (got %d)\n" j;
        exit 3
    | _ -> ());
    (match (certify, approx) with
    | Some _, Some _ ->
        Printf.eprintf "error: --certify cannot substantiate an approximate verdict\n";
        exit 3
    | _ -> ());
    let checkers =
      match checkers with
      | None -> None
      | Some s -> (
          match Portfolio.selection_of_string s with
          | Ok sel -> Some sel
          | Error msg ->
              Printf.eprintf "error: --checkers: %s\n" msg;
              exit 3)
    in
    (match (stream, approx, certify) with
    | true, Some _, _ ->
        Printf.eprintf "error: --approx is not supported with --stream\n";
        exit 3
    | true, _, Some _ ->
        Printf.eprintf
          "error: --certify is not supported with --stream (certification replays the \
           materialised circuits)\n";
        exit 3
    | true, None, None -> (
        match strategy with
        | Qcec.Alternating | Qcec.Combined -> ()
        | s ->
            Printf.eprintf
              "error: --stream only supports the alternating strategy (got %s)\n"
              (Qcec.strategy_to_string s);
            exit 3)
    | false, _, _ -> ());
    let sink = Option.map (fun _ -> Engine.Trace.create ()) trace in
    if stream then begin
      let deadline = Option.map (fun t -> Mclock.now () +. t) timeout in
      let report =
        try
          Stream_checker.check ~scheme ?tol ?gc_threshold ?deadline ?sink file1 file2
        with
        | Oqec_qasm.Qasm_stream.Unsupported msg ->
            Printf.eprintf "error: %s\n" msg;
            exit 3
        | Oqec_qasm.Qasm_parser.Error (msg, line) ->
            Printf.eprintf "error: line %d: %s\n" line msg;
            exit 3
        | Oqec_qasm.Qasm.Parse_error msg ->
            Printf.eprintf "error: %s\n" msg;
            exit 3
      in
      (match (trace, sink) with
      | Some path, Some s ->
          let oc = open_out path in
          output_string oc (Engine.Trace.to_chrome_json s);
          output_char oc '\n';
          close_out oc
      | _ -> ());
      if verdict_only then print_endline (Equivalence.verdict_line report)
      else if json then print_endline (Equivalence.report_to_json report)
      else begin
        Format.printf "%a@." Equivalence.pp_report report;
        if dd_stats then
          match Equivalence.dd_stats report with
          | Some s -> Format.printf "%a@." Oqec_dd.Dd.pp_stats s
          | None -> ()
      end;
      match report.Equivalence.outcome with
      | Equivalence.Equivalent -> exit 0
      | Equivalence.Not_equivalent -> exit 1
      | Equivalence.No_information | Equivalence.Timed_out -> exit 2
    end;
    let g = load file1 and g' = load file2 in
    let report =
      match approx with
      | Some threshold ->
          let deadline = Option.map (fun t -> Mclock.now () +. t) timeout in
          let r, _fid =
            Dd_checker.check_approximate ?tol ?gc_threshold ?deadline ?sink ~threshold g
              g'
          in
          r
      | None ->
          Qcec.check ~strategy ?timeout ?tol ?gc_threshold:gc_threshold ~sim_runs ~seed
            ?jobs ~scheme ?table ?checkers ?sink ?instantiations ?param_seed g g'
    in
    (match (trace, sink) with
    | Some path, Some s ->
        let oc = open_out path in
        output_string oc (Engine.Trace.to_chrome_json s);
        output_char oc '\n';
        close_out oc
    | _ -> ());
    if verdict_only then print_endline (Equivalence.verdict_line report)
    else if json then print_endline (Equivalence.report_to_json report)
    else begin
      Format.printf "%a@." Equivalence.pp_report report;
      if dd_stats then
        match Equivalence.dd_stats report with
        | Some s -> Format.printf "%a@." Oqec_dd.Dd.pp_stats s
        | None -> Format.printf "(no decision-diagram engine ran for this strategy)@."
    end;
    (match (certify, report.Equivalence.outcome) with
    | None, _ -> ()
    | Some _, (Equivalence.No_information | Equivalence.Timed_out) ->
        Printf.eprintf "note: inconclusive verdict, no certificate written\n"
    | Some path, _ -> (
        (* Checkers attach certificates opportunistically; a bare
           verdict (DD or stabilizer win, for instance) is certified
           from scratch. *)
        match Certify.of_report report g g' with
        | Ok c ->
            let oc = open_out path in
            output_string oc (Oqec_cert.Cert.serialize c);
            close_out oc;
            Printf.eprintf "certificate written to %s (%s)\n" path
              (Oqec_cert.Cert.summary c)
        | Error msg ->
            Printf.eprintf "error: cannot certify the verdict: %s\n" msg;
            exit 4));
    match report.Equivalence.outcome with
    | Equivalence.Equivalent -> exit 0
    | Equivalence.Not_equivalent -> exit 1
    | Equivalence.No_information | Equivalence.Timed_out -> exit 2
  in
  Cmd.v
    (Cmd.info "check" ~doc:"Check two OpenQASM circuits for equivalence.")
    Term.(
      const run $ file1 $ file2 $ strategy $ timeout $ tol $ sim_runs $ seed $ jobs
      $ approx $ gc_threshold $ dd_stats $ json $ verdict_only $ trace $ checkers
      $ dd_scheme $ stream $ certify $ instantiations $ param_seed)

(* ------------------------------------------------------- verify-cert cmd *)

let verify_cert_cmd =
  let file = Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE") in
  let run file =
    let text =
      try
        let ic = open_in_bin file in
        let s = really_input_string ic (in_channel_length ic) in
        close_in ic;
        s
      with Sys_error msg ->
        Printf.eprintf "error: %s\n" msg;
        exit 3
    in
    match Oqec_cert.Cert.parse text with
    | Error msg ->
        Printf.eprintf "error: %s: %s\n" file msg;
        exit 1
    | Ok cert -> (
        match Oqec_cert.Cert_validate.validate cert with
        | Ok () ->
            Printf.printf "certificate valid: %s\n" (Oqec_cert.Cert.summary cert);
            exit 0
        | Error msg ->
            Printf.printf "certificate INVALID: %s\n" msg;
            exit 1)
  in
  Cmd.v
    (Cmd.info "verify-cert"
       ~doc:
         "Independently validate a certificate produced by $(b,oqec check --certify): \
          replay a ZX proof step by step against the graph primitives, or re-simulate \
          a refuting stimulus witness.  The validator shares no code with the \
          equivalence-checking engines.")
    Term.(const run $ file)

(* ------------------------------------------------------------- info cmd *)

let info_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let run file =
    let c = load file in
    Printf.printf "name:         %s\n" (Circuit.name c);
    Printf.printf "qubits:       %d\n" (Circuit.num_qubits c);
    Printf.printf "gates:        %d\n" (Circuit.gate_count c);
    Printf.printf "two-qubit:    %d\n" (Circuit.two_qubit_count c);
    Printf.printf "t-count:      %d\n" (Circuit.t_count c);
    Printf.printf "depth:        %d\n" (Circuit.depth c);
    (match Circuit.output_perm c with
    | Some p -> Format.printf "output perm:  %a@." Perm.pp p
    | None -> ())
  in
  Cmd.v (Cmd.info "info" ~doc:"Print statistics about a QASM circuit.") Term.(const run $ file)

(* --------------------------------------------------------- generate cmd *)

let generate_cmd =
  let kind =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"KIND"
          ~doc:
            "ghz, graphstate, qft, qpe, grover, qwalk, adder, urf or stream (a random \
             Clifford+T circuit written directly as QASM text, sized by --gates; see \
             --twin).")
  in
  let size = Arg.(value & opt int 4 & info [ "n"; "size" ] ~docv:"N") in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED") in
  let out = Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE") in
  let gates =
    Arg.(
      value & opt int 1000
      & info [ "gates" ] ~docv:"G"
          ~doc:
            "Gate count for the $(b,stream) kind.  The circuit is emitted straight to \
             the output without being materialised, so gate counts in the millions are \
             fine.")
  in
  let twin =
    Arg.(
      value & flag
      & info [ "twin" ]
          ~doc:
            "With the $(b,stream) kind: emit the provably equivalent twin of the same \
             (seed, size, gates) stream — every gate rewritten through an exact local \
             identity, with identity pairs interleaved.  A (base, twin) pair is a \
             ready-made test case for $(b,oqec check --stream).")
  in
  let barrier_every =
    Arg.(
      value & opt int 0
      & info [ "barrier-every" ] ~docv:"K"
          ~doc:
            "With the $(b,stream) kind: emit a $(b,barrier) at matching logical \
             positions every K base gates (0 = none).  The streaming checker uses \
             matching barriers to re-synchronise its two cursors, keeping the miter \
             small on long streams; recommended for large --gates counts.")
  in
  let run kind size seed out gates barrier_every twin =
    let with_out f =
      match out with
      | Some path ->
          let oc = open_out path in
          f oc;
          close_out oc
      | None -> f stdout
    in
    if kind = "stream" then begin
      if size < 2 then begin
        Printf.eprintf "error: stream needs --size >= 2 (got %d)\n" size;
        exit 3
      end;
      if gates < 1 then begin
        Printf.eprintf "error: --gates must be >= 1 (got %d)\n" gates;
        exit 3
      end;
      if barrier_every < 0 then begin
        Printf.eprintf "error: --barrier-every must be >= 0 (got %d)\n" barrier_every;
        exit 3
      end;
      with_out (fun oc ->
          Oqec_workloads.Workloads.stream_qasm ~seed ~qubits:size ~gates ~barrier_every
            ~twin oc)
    end
    else
      match generator_of_string ~seed ~size kind with
      | None ->
          Printf.eprintf "error: unknown generator %S\n" kind;
          exit 3
      | Some c ->
          let lowered = Decompose.elementary c in
          with_out (fun oc -> output_string oc (Oqec_qasm.Qasm.to_string lowered))
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"Generate a benchmark circuit as OpenQASM.")
    Term.(const run $ kind $ size $ seed $ out $ gates $ barrier_every $ twin)

(* ---------------------------------------------------------- compile cmd *)

let compile_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let arch =
    Arg.(
      value
      & opt string "manhattan"
      & info [ "a"; "arch" ] ~docv:"ARCH"
          ~doc:"manhattan, linear:N, ring:N or grid:R:C.")
  in
  let out = Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE") in
  let run file arch out =
    match arch_of_string arch with
    | None ->
        Printf.eprintf "error: unknown architecture %S\n" arch;
        exit 3
    | Some a -> (
        let c = load file in
        let compiled = Oqec_compile.Compile.run a c in
        let text = Oqec_qasm.Qasm.to_string compiled in
        match out with
        | Some path ->
            let oc = open_out path in
            output_string oc text;
            close_out oc;
            Printf.printf "compiled %s onto %s: %d gates\n" file
              (Oqec_compile.Architecture.name a)
              (Circuit.gate_count compiled)
        | None -> print_string text)
  in
  Cmd.v
    (Cmd.info "compile" ~doc:"Compile a QASM circuit onto a coupling map.")
    Term.(const run $ file $ arch $ out)

(* ------------------------------------------------------------- fuzz cmd *)

let fuzz_cmd =
  let module Fuzz = Oqec_fuzz.Fuzz in
  let module Fuzz_gen = Oqec_fuzz.Fuzz_gen in
  let profile =
    Arg.(
      value
      & opt string "mixed"
      & info [ "p"; "profile" ] ~docv:"PROFILE"
          ~doc:
            "Gate-set profile for generated circuits: clifford, clifford+t, rotations, \
             mcx, parameterized (symbolic angles, checked through the instantiation \
             oracle) or mixed.")
  in
  let runs = Arg.(value & opt int 100 & info [ "runs" ] ~docv:"N" ~doc:"Generated cases.") in
  let max_qubits =
    Arg.(value & opt int 6 & info [ "max-qubits" ] ~docv:"Q" ~doc:"Maximum circuit width.")
  in
  let max_gates =
    Arg.(
      value & opt int 24 & info [ "max-gates" ] ~docv:"G" ~doc:"Maximum base-circuit size.")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED") in
  let shrink =
    Arg.(
      value & flag
      & info [ "shrink" ]
          ~doc:"Greedily minimise failing pairs before persisting them to the corpus.")
  in
  let corpus =
    Arg.(
      value
      & opt (some string) None
      & info [ "corpus" ] ~docv:"DIR"
          ~doc:
            "Regression-corpus directory: replay every stored counterexample before \
             fuzzing and persist newly found (shrunk) counterexamples into it.")
  in
  let only =
    Arg.(
      value
      & opt (some int) None
      & info [ "only" ] ~docv:"INDEX"
          ~doc:
            "Replay a single case index instead of the whole run — case INDEX under a \
             given seed is fully deterministic, so this reproduces one failure in \
             isolation.")
  in
  let timeout =
    Arg.(
      value & opt float 10.0
      & info [ "timeout" ] ~docv:"SECONDS" ~doc:"Per-checker timeout for each case.")
  in
  let checkers =
    Arg.(
      value
      & opt (some string) None
      & info [ "checkers" ] ~docv:"LIST"
          ~doc:"Comma-separated subset of the oracle's checkers: dd, zx, sim, stab.")
  in
  let json = Arg.(value & flag & info [ "json" ] ~doc:"Emit run statistics as one JSON object.") in
  let run profile runs max_qubits max_gates seed shrink corpus only timeout checkers
      json =
    let profile =
      match Fuzz_gen.profile_of_string profile with
      | Some p -> p
      | None ->
          Printf.eprintf "error: unknown profile %S\n" profile;
          exit 3
    in
    if runs < 0 then begin
      Printf.eprintf "error: --runs must be >= 0 (got %d)\n" runs;
      exit 3
    end;
    if max_qubits < 2 then begin
      Printf.eprintf "error: --max-qubits must be >= 2 (got %d)\n" max_qubits;
      exit 3
    end;
    let checkers =
      match checkers with
      | None -> None
      | Some s ->
          let names = String.split_on_char ',' s |> List.map String.trim in
          let known = List.map (fun (n, _, _) -> n) (Qcec.oracle_checkers ()) in
          List.iter
            (fun n ->
              if not (List.mem n known) then begin
                Printf.eprintf "error: --checkers: unknown checker %S (expected dd, zx, sim, stab)\n" n;
                exit 3
              end)
            names;
          Some names
    in
    (* Hidden test hook: deliberately corrupt one checker's verdicts so the
       oracle/shrink/corpus path can be exercised end to end. *)
    (match Sys.getenv_opt "OQEC_FUZZ_BREAK" with
    | Some name when name <> "" ->
        Atomic.set Oqec_fuzz.Fuzz_oracle.break_hook (Some name)
    | _ -> ());
    set_engine_break_hook ();
    let config =
      {
        Fuzz.profile;
        runs;
        max_qubits;
        max_gates;
        seed;
        shrink;
        corpus;
        only;
        timeout;
        checkers;
      }
    in
    let log = if json then fun line -> prerr_endline line else print_endline in
    let stats = Fuzz.run ~log config in
    if json then print_endline (Fuzz.stats_to_json config stats)
    else
      Printf.printf
        "fuzz: %d cases, %d failures (corpus: %d replayed, %d failing, %d new) in %.2fs\n"
        stats.Fuzz.cases stats.Fuzz.failures stats.Fuzz.corpus_replayed
        stats.Fuzz.corpus_failures stats.Fuzz.corpus_new stats.Fuzz.elapsed;
    if stats.Fuzz.failures > 0 || stats.Fuzz.corpus_failures > 0 then exit 1 else exit 0
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Differential fuzzing: random circuit pairs with provable metamorphic \
          expectations are run through every checker; any disagreement is shrunk and \
          persisted as a regression.")
    Term.(
      const run $ profile $ runs $ max_qubits $ max_gates $ seed $ shrink $ corpus $ only
      $ timeout $ checkers $ json)

(* ------------------------------------------------------------ serve cmd *)

let serve_cmd =
  let socket =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:
            "Serve the line-delimited JSON protocol on a Unix socket at $(docv) with a \
             domain-pool scheduler.  Without this flag the server speaks the same \
             protocol synchronously on stdin/stdout (deterministic event order; one \
             request at a time).")
  in
  let jobs =
    Arg.(
      value & opt int Oqec_serve.Server.default_config.Oqec_serve.Server.jobs
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:"Worker domains of the socket server's pool (each owns a resident DD store).")
  in
  let max_pending =
    Arg.(
      value & opt int Oqec_serve.Server.default_config.Oqec_serve.Server.max_pending
      & info [ "max-pending" ] ~docv:"N"
          ~doc:"Admission control: submits beyond $(docv) queued jobs are rejected.")
  in
  let max_bytes =
    Arg.(
      value & opt int Oqec_serve.Server.default_config.Oqec_serve.Server.max_bytes
      & info [ "max-bytes" ] ~docv:"BYTES" ~doc:"Per-side QASM text budget.")
  in
  let max_qubits =
    Arg.(
      value & opt int Oqec_serve.Server.default_config.Oqec_serve.Server.max_qubits
      & info [ "max-qubits" ] ~docv:"N" ~doc:"Per-request circuit width budget.")
  in
  let cache_entries =
    Arg.(
      value & opt int Oqec_serve.Server.default_config.Oqec_serve.Server.cache_capacity
      & info [ "cache-entries" ] ~docv:"N"
          ~doc:"Capacity of the cross-request verdict and parse caches.")
  in
  let high_water =
    Arg.(
      value & opt int Oqec_serve.Server.default_config.Oqec_serve.Server.high_water
      & info [ "high-water" ] ~docv:"NODES"
          ~doc:
            "Live-node count of a worker's resident DD store beyond which the epoch \
             sweep evicts finished requests' diagrams.")
  in
  let default_timeout =
    Arg.(
      value
      & opt (some float) Oqec_serve.Server.default_config.Oqec_serve.Server.default_timeout
      & info [ "default-timeout" ] ~docv:"SECONDS"
          ~doc:"Per-request deadline applied when a submit carries no timeout.")
  in
  let run socket jobs max_pending max_bytes max_qubits cache_entries high_water
      default_timeout =
    let cfg =
      {
        Oqec_serve.Server.jobs;
        max_pending;
        max_bytes;
        max_qubits;
        default_timeout;
        cache_capacity = cache_entries;
        high_water;
      }
    in
    (match socket with
    | Some path -> Oqec_serve.Server.run_socket ~cfg ~path ()
    | None -> Oqec_serve.Server.Sync.run ~cfg stdin stdout);
    exit 0
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the resident checker service: a long-lived daemon speaking line-delimited \
          JSON (submit QASM pair, get streamed verdict/engine_stats/error events) whose \
          DD unique/compute tables stay warm across requests.")
    Term.(
      const run $ socket $ jobs $ max_pending $ max_bytes $ max_qubits $ cache_entries
      $ high_water $ default_timeout)

(* ------------------------------------------------------------ client cmd *)

let client_cmd =
  let socket =
    Arg.(
      required
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH" ~doc:"Unix socket of a running $(b,oqec serve).")
  in
  let submits =
    Arg.(
      value
      & opt_all (pair ~sep:',' file file) []
      & info [ "submit" ] ~docv:"FILE1,FILE2"
          ~doc:
            "Submit a QASM pair (repeatable; all pairs are submitted before any verdict \
             is awaited, so they run concurrently on the server's pool).  Prints one \
             canonical verdict line per pair, in submission order.")
  in
  let fresh =
    Arg.(
      value & flag
      & info [ "fresh" ]
          ~doc:"Bypass the server's verdict cache (the resident DD store still warms).")
  in
  let timeout =
    Arg.(value & opt (some float) None & info [ "timeout" ] ~docv:"SECONDS")
  in
  let strategy =
    Arg.(value & opt (some string) None & info [ "s"; "strategy" ] ~docv:"STRATEGY")
  in
  let seed = Arg.(value & opt (some int) None & info [ "seed" ] ~docv:"SEED") in
  let sim_runs = Arg.(value & opt (some int) None & info [ "sim-runs" ] ~docv:"N") in
  let stats =
    Arg.(
      value & flag
      & info [ "stats" ]
          ~doc:
            "After the submissions, print the server's counter snapshot (one JSON line \
             with server.cache.hit/miss/evict and the resident-store gauges).")
  in
  let shutdown =
    Arg.(
      value & flag
      & info [ "shutdown" ] ~doc:"Finally ask the server to drain and exit.")
  in
  let transcript =
    Arg.(
      value
      & opt (some string) None
      & info [ "transcript" ] ~docv:"FILE"
          ~doc:
            "Append every protocol line (\"> \" sent, \"< \" received) to $(docv).")
  in
  let run socket submits fresh timeout strategy seed sim_runs stats shutdown transcript =
    let log =
      match transcript with
      | None -> fun _ -> ()
      | Some path ->
          let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
          at_exit (fun () -> close_out_noerr oc);
          fun line ->
            output_string oc line;
            output_char oc '\n'
    in
    (* The server may still be binding the socket when CI starts the
       client; retry briefly before giving up. *)
    let fd =
      let rec connect attempts =
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        match Unix.connect fd (Unix.ADDR_UNIX socket) with
        | () -> fd
        | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
          when attempts > 0 ->
            Unix.close fd;
            Unix.sleepf 0.1;
            connect (attempts - 1)
        | exception Unix.Unix_error (e, _, _) ->
            Printf.eprintf "error: cannot connect to %s: %s\n" socket
              (Unix.error_message e);
            exit 3
      in
      connect 50
    in
    let ic = Unix.in_channel_of_descr fd and oc = Unix.out_channel_of_descr fd in
    let send line =
      log ("> " ^ line);
      output_string oc line;
      output_char oc '\n';
      flush oc
    in
    let recv () =
      match input_line ic with
      | line ->
          log ("< " ^ line);
          Some line
      | exception End_of_file -> None
    in
    let open Oqec_base.Jsonv in
    let opt_field k v = match v with None -> [] | Some x -> [ (k, x) ] in
    let ids = List.mapi (fun i _ -> Printf.sprintf "c%d" i) submits in
    List.iter2
      (fun id (a, b) ->
        let req =
          Obj
            ([
               ("method", Str "submit");
               ("id", Str id);
               ("left_file", Str a);
               ("right_file", Str b);
             ]
            @ (if fresh then [ ("fresh", Bool true) ] else [])
            @ opt_field "timeout" (Option.map (fun t -> Num t) timeout)
            @ opt_field "strategy" (Option.map (fun s -> Str s) strategy)
            @ opt_field "seed" (Option.map (fun s -> Num (float_of_int s)) seed)
            @ opt_field "sim_runs"
                (Option.map (fun s -> Num (float_of_int s)) sim_runs))
        in
        send (to_string req))
      ids submits;
    (* Collect until every submission has a verdict or error (events may
       interleave across jobs — match on the echoed id). *)
    let results = Hashtbl.create 8 in
    let failed = ref false in
    let pending = ref (List.length ids) in
    while !pending > 0 do
      match recv () with
      | None ->
          Printf.eprintf "error: server closed the connection\n";
          exit 3
      | Some line -> (
          match parse_result line with
          | Error _ -> ()
          | Ok j -> (
              let id = Option.bind (member j "id") to_str in
              match Option.bind (member j "event") to_str with
              | Some "verdict" -> (
                  match (id, Option.bind (member j "verdict") to_str) with
                  | Some id, Some v ->
                      Hashtbl.replace results id v;
                      decr pending
                  | _ -> ())
              | Some "error" ->
                  let code =
                    Option.value (Option.bind (member j "code") to_str) ~default:"?"
                  in
                  let msg =
                    Option.value (Option.bind (member j "message") to_str) ~default:""
                  in
                  failed := true;
                  (match id with
                  | Some id ->
                      Hashtbl.replace results id
                        (Printf.sprintf "error %s: %s" code msg);
                      decr pending
                  | None ->
                      (* request-level error (e.g. parse): not attributable *)
                      Printf.eprintf "error %s: %s\n" code msg;
                      exit 3)
              | _ -> ()))
    done;
    List.iter
      (fun id ->
        match Hashtbl.find_opt results id with
        | Some line -> print_endline line
        | None -> ())
      ids;
    if stats then begin
      send {|{"method":"stats"}|};
      let rec wait () =
        match recv () with
        | None ->
            Printf.eprintf "error: server closed the connection\n";
            exit 3
        | Some line -> (
            match parse_result line with
            | Ok j when Option.bind (member j "event") to_str = Some "server_stats" ->
                print_endline line
            | _ -> wait ())
      in
      wait ()
    end;
    if shutdown then begin
      send {|{"method":"shutdown"}|};
      let rec wait () =
        match recv () with
        | None -> ()
        | Some line -> (
            match parse_result line with
            | Ok j when Option.bind (member j "event") to_str = Some "bye" -> ()
            | _ -> wait ())
      in
      wait ()
    end;
    close_out_noerr oc;
    exit (if !failed then 1 else 0)
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:
         "Drive a running $(b,oqec serve) daemon: submit QASM pairs concurrently, print \
          canonical verdict lines, query counters, request shutdown.")
    Term.(
      const run $ socket $ submits $ fresh $ timeout $ strategy $ seed $ sim_runs $ stats
      $ shutdown $ transcript)

let () =
  let doc = "equivalence checking of quantum circuits (DDs vs ZX-calculus)" in
  let main = Cmd.group (Cmd.info "oqec" ~version:"1.0.0" ~doc)
      [
        check_cmd;
        verify_cert_cmd;
        info_cmd;
        generate_cmd;
        compile_cmd;
        fuzz_cmd;
        serve_cmd;
        client_cmd;
      ]
  in
  exit (Cmd.eval main)
