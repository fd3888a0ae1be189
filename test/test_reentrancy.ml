(* Re-entrancy regression tests.

   The resident checker service runs one [Qcec.check] per worker domain
   concurrently, so [Engine.Ctx] and both DD packages must be fully
   re-entrant: no hidden top-level mutable tables, no cross-domain
   sharing except through explicitly synchronised structures.  These
   tests pin that down from two sides: behaviourally (parallel runs in
   separate domains must reproduce the sequential reports bit for bit)
   and textually (a source scan of lib/dd for top-level mutable state,
   in the style of test_cert.ml's validator-independence check). *)

open Oqec_qasm
open Oqec_qcec
open Oqec_workloads.Workloads

let pairs =
  [
    ("ghz-pos", Qasm.to_string (ghz 4), Qasm.to_string (ghz 4));
    ( "ghz-neg",
      Qasm.to_string (ghz 4),
      Qasm.to_string (remove_gate ~seed:5 (ghz 4)) );
    ("qft-pos", Qasm.to_string (qft 5), Qasm.to_string (qft 5));
    ( "adder-neg",
      Qasm.to_string (ripple_adder 3),
      Qasm.to_string (flip_cnot ~seed:2 (ripple_adder 3)) );
  ]

let run_one (_, l, r) =
  let rep =
    Qcec.check ~strategy:Qcec.Combined ~sim_runs:16 ~seed:1 (Qasm.circuit_of_string l)
      (Qasm.circuit_of_string r)
  in
  (rep.Equivalence.outcome, Equivalence.verdict_line rep)

let test_parallel_domains_match_sequential () =
  let sequential = List.map run_one pairs in
  let domains = List.map (fun p -> Domain.spawn (fun () -> run_one p)) pairs in
  let parallel = List.map Domain.join domains in
  List.iteri
    (fun i ((name, _, _), (seq, par)) ->
      let so, sv = seq and po, pv = par in
      Alcotest.(check string)
        (Printf.sprintf "%s (#%d): outcome" name i)
        (Equivalence.outcome_to_string so)
        (Equivalence.outcome_to_string po);
      Alcotest.(check string) (Printf.sprintf "%s (#%d): verdict line" name i) sv pv)
    (List.combine pairs (List.combine sequential parallel))

let test_parallel_same_pair_no_interference () =
  (* Many domains hammering the same check concurrently — each builds
     its own packages, so every verdict must be identical. *)
  let p = List.nth pairs 1 in
  let expected = run_one p in
  let domains = List.init 4 (fun _ -> Domain.spawn (fun () -> run_one p)) in
  List.iteri
    (fun i d ->
      let _, v = Domain.join d and _, ev = expected in
      Alcotest.(check string) (Printf.sprintf "domain %d verdict" i) ev v)
    domains

(* ------------------------------------------------------- source scan *)

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let locate rel =
  let candidates = [ "../" ^ rel; "../../" ^ rel; rel ] in
  List.find_opt Sys.file_exists candidates

(* Top-level mutable state in lib/dd would be shared by every domain
   without synchronisation.  All mutable tables must live inside a
   [pkg] or [Dd_session.t] created per owner; flag any top-level
   binding that allocates one. *)
let test_dd_sources_have_no_toplevel_mutable_state () =
  let files =
    [ "lib/dd/dd.ml"; "lib/dd/wtable.ml"; "lib/dd/dd_circuit.ml"; "lib/dd/dd_session.ml" ]
  in
  let forbidden =
    [ "ref "; "ref("; "Hashtbl.create"; "Atomic.make"; "Array.make"; "Bytes.create" ]
  in
  List.iter
    (fun rel ->
      match locate rel with
      | None -> Alcotest.failf "cannot locate %s (cwd %s)" rel (Sys.getcwd ())
      | Some path ->
          let lines = String.split_on_char '\n' (read_file path) in
          List.iteri
            (fun lineno line ->
              (* A top-level [let] starts at column 0; local bindings
                 inside functions are indented by ocamlformat. *)
              let toplevel =
                String.length line > 4 && String.sub line 0 4 = "let "
              in
              if toplevel then
                List.iter
                  (fun pat ->
                    let has_pat =
                      let pl = String.length pat and ll = String.length line in
                      let rec scan i =
                        i + pl <= ll
                        && (String.sub line i pl = pat || scan (i + 1))
                      in
                      scan 0
                    in
                    if has_pat then
                      Alcotest.failf
                        "%s:%d: top-level binding allocates mutable state (%s): %s"
                        rel (lineno + 1) (String.trim pat) (String.trim line))
                  forbidden)
            lines)
    files

let suite =
  [
    Alcotest.test_case "parallel domains match sequential" `Slow
      test_parallel_domains_match_sequential;
    Alcotest.test_case "same pair across domains" `Slow
      test_parallel_same_pair_no_interference;
    Alcotest.test_case "lib/dd has no top-level mutable state" `Quick
      test_dd_sources_have_no_toplevel_mutable_state;
  ]
