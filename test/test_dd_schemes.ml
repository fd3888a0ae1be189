(* Application schemes and profile-guided dispatch.

   The scheme only decides which side of the miter contributes the next
   gate, so it must be invisible in every answer:
   - fixed-seed differential suite: all four concrete schemes plus auto
     agree with the dense reference unitaries over 100 generated pairs,
     and the Combined strategy reports the identical counterexample note
     regardless of scheme;
   - Table-1 style compiled miters, clean and with injected faults
     (remove_gate / flip_cnot), across every scheme;
   - unit tests pin each scheme's side policy on synthetic probes;
   - the dispatch table round-trips through its JSON wire form, rejects
     malformed input, and falls back to Alternating on fingerprints it
     has never seen;
   - the resolved scheme is visible in engine_stats (dd.scheme.<name>). *)

open Oqec_base
open Oqec_circuit
open Oqec_compile
open Oqec_qcec

let outcome =
  Alcotest.testable
    (fun fmt o -> Format.pp_print_string fmt (Equivalence.outcome_to_string o))
    ( = )

(* ------------------------------------------------- scheme round trips *)

let test_scheme_strings () =
  List.iter
    (fun s ->
      Alcotest.(check (option string))
        (Dd_scheme.to_string s ^ " round-trips")
        (Some (Dd_scheme.to_string s))
        (Option.map Dd_scheme.to_string (Dd_scheme.of_string (Dd_scheme.to_string s))))
    (Dd_scheme.Auto :: Dd_scheme.all);
  Alcotest.(check bool)
    "cost-metric spellings accepted" true
    (Dd_scheme.of_string "cost-metric" = Some Dd_scheme.Cost_metric
    && Dd_scheme.of_string "cost_metric" = Some Dd_scheme.Cost_metric);
  Alcotest.(check bool) "unknown rejected" true (Dd_scheme.of_string "banana" = None)

(* --------------------------------------------- side policies, pinned *)

let probe ?(ia = 0) ?(ib = 0) ?(ka = 1) ?(kb = 1) ?(ca = 0) ?(cb = 0) ?(cta = 1)
    ?(ctb = 1) ?(peek_l = 0) ?(peek_r = 0) () =
  {
    Dd_scheme.left_applied = ia;
    left_total = ka;
    right_applied = ib;
    right_total = kb;
    left_cost_applied = ca;
    left_cost_total = cta;
    right_cost_applied = cb;
    right_cost_total = ctb;
    live_size = (fun () -> 1);
    peek_left = (fun () -> peek_l);
    peek_right = (fun () -> peek_r);
  }

let side = Alcotest.testable (fun fmt s ->
    Format.pp_print_string fmt
      (match s with Dd_scheme.Left -> "left" | Dd_scheme.Right -> "right"))
    ( = )

let test_side_policies () =
  let choose (module S : Dd_scheme.APPLICATION_SCHEME) p = S.choose p in
  let alt = choose Dd_scheme.alternating in
  Alcotest.check side "alternating starts left" Dd_scheme.Left (alt (probe ()));
  Alcotest.check side "alternating answers imbalance" Dd_scheme.Right
    (alt (probe ~ia:3 ~ib:2 ()));
  Alcotest.check side "alternating ties break left" Dd_scheme.Left
    (alt (probe ~ia:2 ~ib:2 ()));
  let prop = choose Dd_scheme.proportional in
  (* 1/10 applied left vs 2/40 right: 1*40 <= 2*10 fails -> right. *)
  Alcotest.check side "proportional follows the gate-count ratio" Dd_scheme.Right
    (prop (probe ~ia:1 ~ka:10 ~ib:1 ~kb:40 ()));
  Alcotest.check side "proportional starts left" Dd_scheme.Left
    (prop (probe ~ka:10 ~kb:40 ()));
  let look = choose Dd_scheme.lookahead in
  Alcotest.check side "lookahead keeps the smaller DD" Dd_scheme.Right
    (look (probe ~peek_l:9 ~peek_r:4 ()));
  Alcotest.check side "lookahead ties break left" Dd_scheme.Left
    (look (probe ~peek_l:4 ~peek_r:4 ()));
  let cost = choose Dd_scheme.cost_metric in
  Alcotest.check side "cost-metric follows the cost ratio" Dd_scheme.Right
    (cost (probe ~ca:5 ~cta:10 ~cb:2 ~ctb:40 ()));
  Alcotest.check side "cost-metric starts left" Dd_scheme.Left
    (cost (probe ~cta:10 ~ctb:40 ()))

let test_op_costs () =
  let c = Circuit.ccx (Circuit.cx (Circuit.t_gate (Circuit.h (Circuit.create 3) 0) 0) 0 1) 0 1 2 in
  let costs = List.map Dd_scheme.op_cost (Circuit.ops c) in
  (* h (Clifford) 1, t 2, cx (1 ctrl, Clifford target) 4, ccx (2
     ctrls, Clifford target) 6. *)
  Alcotest.(check (list int)) "op costs pinned" [ 1; 2; 4; 6 ] costs

(* ------------------------------------------- differential agreement *)

let schemes_with_auto = Dd_scheme.all @ [ Dd_scheme.Auto ]

(* Every scheme must reproduce the verdict of the dense reference
   unitaries (all pairs here have at most 8 qubits), which is returned. *)
let agree_on label g g' =
  let reference = Test_dd_arena.dense_outcome g g' in
  List.iter
    (fun scheme ->
      let r = Dd_checker.check_miter ~scheme g g' in
      Alcotest.check outcome
        (Printf.sprintf "%s: %s agrees with the dense reference" label
           (Dd_scheme.to_string scheme))
        reference r.Equivalence.outcome)
    schemes_with_auto;
  reference

let test_generated_pairs () =
  for seed = 1 to 100 do
    let rng = Rng.make ~seed in
    let n = 2 + Rng.int rng 4 in
    let c1 =
      Test_differential.random_circuit rng ~clifford_only:false n (5 + Rng.int rng 15)
    in
    let c2 = Test_differential.derive rng c1 in
    if Circuit.gate_count c1 > 0 then
      ignore (agree_on (Printf.sprintf "seed %d" seed) c1 c2)
  done

(* The counterexample a Combined run reports comes from the simulation
   screen, whose stimulus order the scheme must not perturb: the note
   (naming the refuting stimulus index) is identical across schemes. *)
let test_counterexample_notes () =
  List.iter
    (fun seed ->
      let rng = Rng.make ~seed in
      let c1 = Test_differential.random_circuit rng ~clifford_only:false 4 12 in
      let c2 = Oqec_workloads.Workloads.remove_gate ~seed c1 in
      let note scheme =
        let r = Qcec.check ~strategy:Qcec.Combined ~seed:1 ~scheme c1 c2 in
        (Equivalence.outcome_to_string r.Equivalence.outcome, r.Equivalence.note)
      in
      let base = note Dd_scheme.Alternating in
      List.iter
        (fun scheme ->
          Alcotest.(check (pair string string))
            (Printf.sprintf "seed %d: %s verdict and note match alternating" seed
               (Dd_scheme.to_string scheme))
            base (note scheme))
        schemes_with_auto)
    [ 3; 7; 11; 19 ]

let test_compiled_miters () =
  let module W = Oqec_workloads.Workloads in
  List.iter
    (fun (name, g) ->
      let g' = Compile.run (Architecture.ring (Circuit.num_qubits g + 2)) g in
      Alcotest.check outcome (name ^ ": compiled pair is equivalent")
        Equivalence.Equivalent
        (agree_on name g g');
      Alcotest.check outcome (name ^ ": dropped gate refuted")
        Equivalence.Not_equivalent
        (agree_on (name ^ "-missing") g (W.remove_gate ~seed:5 g'));
      match W.flip_cnot ~seed:7 g' with
      | flipped -> ignore (agree_on (name ^ "-flipped") g flipped)
      | exception Invalid_argument _ -> ())
    [
      ("ghz-6", W.ghz 6);
      ("qft-5", W.qft 5);
      ("graphstate-6", W.graph_state ~seed:3 6);
      ("qwalk-3", W.random_walk ~steps:3 3);
    ]

(* ------------------------------------------------- dispatch table *)

let table_entries t =
  List.map (fun e -> (e.Dd_dispatch.fingerprint, e.Dd_dispatch.scheme)) t

let test_dispatch_roundtrip () =
  let table =
    List.mapi
      (fun i s ->
        { Dd_dispatch.fingerprint = Printf.sprintf "v1:q%d:s1:r2:c0:h0.0.0.0" i;
          scheme = s })
      Dd_scheme.all
  in
  match Dd_dispatch.parse (Dd_dispatch.to_json table) with
  | Error e -> Alcotest.fail ("round trip: " ^ e)
  | Ok t ->
      Alcotest.(check (list (pair string string)))
        "parse (to_json t) = t"
        (List.map (fun (f, s) -> (f, Dd_scheme.to_string s)) (table_entries table))
        (List.map (fun (f, s) -> (f, Dd_scheme.to_string s)) (table_entries t))

let test_dispatch_save_load () =
  let path = Filename.temp_file "oqec_dispatch" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let table =
        [ { Dd_dispatch.fingerprint = "v1:q3:s2:r2:c5:h1.1.1.0";
            scheme = Dd_scheme.Lookahead } ]
      in
      Dd_dispatch.save path table;
      match Dd_dispatch.load path with
      | Error e -> Alcotest.fail ("load: " ^ e)
      | Ok t ->
          Alcotest.(check int) "one entry survives" 1 (List.length t);
          Alcotest.(check bool) "entry intact" true (t = table));
  Alcotest.(check bool)
    "missing file is an error" true
    (Result.is_error (Dd_dispatch.load "nonexistent/dispatch.json"))

let test_dispatch_rejects () =
  let bad =
    [
      ("garbage", "not json");
      ("wrong version", {|{"version":2,"entries":[]}|});
      ("auto entry", {|{"version":1,"entries":[{"fingerprint":"x","scheme":"auto"}]}|});
      ("unknown scheme",
       {|{"version":1,"entries":[{"fingerprint":"x","scheme":"banana"}]}|});
      ("trailing garbage", {|{"version":1,"entries":[]} trailing|});
      ("truncated", {|{"version":1,"entries":[|});
    ]
  in
  List.iter
    (fun (label, s) ->
      Alcotest.(check bool) (label ^ " rejected") true
        (Result.is_error (Dd_dispatch.parse s)))
    bad

let test_dispatch_fallback () =
  let g = Oqec_workloads.Workloads.ghz 3 in
  let g' = Compile.run (Architecture.ring 4) g in
  Alcotest.(check string)
    "unseen fingerprint falls back to alternating" "alternating"
    (Dd_scheme.to_string (Dd_dispatch.choose ~table:[] g g'));
  let fp = Dd_dispatch.fingerprint g g' in
  let table = [ { Dd_dispatch.fingerprint = fp; scheme = Dd_scheme.Cost_metric } ] in
  Alcotest.(check string)
    "table hit resolves" "cost"
    (Dd_scheme.to_string (Dd_dispatch.choose ~table g g'));
  Alcotest.(check (option string))
    "lookup misses cleanly" None
    (Option.map Dd_scheme.to_string (Dd_dispatch.lookup table "v1:nope"))

let test_builtin_parses () =
  (* The compiled-in snapshot must stay a valid, non-empty table (it is
     what --dd-scheme auto uses outside a repo checkout). *)
  Alcotest.(check bool) "builtin table non-empty" true (Dd_dispatch.builtin <> []);
  match Dd_dispatch.parse (Dd_dispatch.to_json Dd_dispatch.builtin) with
  | Ok t -> Alcotest.(check bool) "builtin round-trips" true (t = Dd_dispatch.builtin)
  | Error e -> Alcotest.fail e

(* --------------------------------------------------- resolved scheme *)

let test_engine_stats_scheme () =
  let g = Oqec_workloads.Workloads.ghz 4 in
  let g' = Compile.run (Architecture.ring 5) g in
  let counters scheme =
    let r = Qcec.check ~strategy:Qcec.Alternating ~scheme g g' in
    match r.Equivalence.engine_stats with
    | [ e ] -> (e.Equivalence.engine, e.Equivalence.counters)
    | _ -> Alcotest.fail "expected a single engine_stats entry"
  in
  let name, kvs = counters Dd_scheme.Lookahead in
  Alcotest.(check string) "engine named after the scheme" "dd-lookahead" name;
  Alcotest.(check (option int))
    "concrete scheme recorded" (Some 1)
    (List.assoc_opt "dd.scheme.lookahead" kvs);
  Alcotest.(check bool)
    "sides counted" true
    (List.assoc_opt "dd.left_applied" kvs <> None
    && List.assoc_opt "dd.right_applied" kvs <> None);
  let name, kvs = counters Dd_scheme.Auto in
  Alcotest.(check string) "auto keeps its own engine name" "dd-auto" name;
  let resolved =
    List.filter
      (fun (k, v) ->
        String.length k > 10 && String.sub k 0 10 = "dd.scheme." && v = 1)
      kvs
  in
  match resolved with
  | [ (k, _) ] ->
      let s = String.sub k 10 (String.length k - 10) in
      Alcotest.(check bool)
        ("auto resolved to a concrete scheme (" ^ s ^ ")")
        true
        (match Dd_scheme.of_string s with
        | Some Dd_scheme.Auto | None -> false
        | Some _ -> true)
  | _ -> Alcotest.fail "auto must record exactly one resolved scheme"

let suite =
  [
    Alcotest.test_case "schemes: to_string/of_string round trip" `Quick
      test_scheme_strings;
    Alcotest.test_case "schemes: side policies pinned on synthetic probes" `Quick
      test_side_policies;
    Alcotest.test_case "schemes: op costs pinned" `Quick test_op_costs;
    Alcotest.test_case "differential: schemes match dense reference, 100 seeds" `Slow
      test_generated_pairs;
    Alcotest.test_case "differential: counterexample notes scheme-independent" `Slow
      test_counterexample_notes;
    Alcotest.test_case "differential: compiled miters with injected faults" `Slow
      test_compiled_miters;
    Alcotest.test_case "dispatch: JSON round trip" `Quick test_dispatch_roundtrip;
    Alcotest.test_case "dispatch: save/load" `Quick test_dispatch_save_load;
    Alcotest.test_case "dispatch: malformed tables rejected" `Quick
      test_dispatch_rejects;
    Alcotest.test_case "dispatch: unseen fingerprints fall back" `Quick
      test_dispatch_fallback;
    Alcotest.test_case "dispatch: builtin snapshot valid" `Quick test_builtin_parses;
    Alcotest.test_case "engine stats: resolved scheme visible" `Quick
      test_engine_stats_scheme;
  ]
