open Oqec_base
open Oqec_circuit
module Workloads = Oqec_workloads.Workloads
module Equivalence = Oqec_qcec.Equivalence

type config = {
  profile : Fuzz_gen.profile;
  runs : int;
  max_qubits : int;
  max_gates : int;
  seed : int;
  shrink : bool;
  corpus : string option;
  only : int option;
  timeout : float;
  checkers : string list option;
}

let default_config =
  {
    profile = Fuzz_gen.Mixed;
    runs = 100;
    max_qubits = 6;
    max_gates = 24;
    seed = 1;
    shrink = false;
    corpus = None;
    only = None;
    timeout = 10.0;
    checkers = None;
  }

type case = {
  index : int;
  left : Circuit.t;
  right : Circuit.t;
  expected : Fuzz_oracle.expected;
  mutations : string list;
  fault : string option;
}

(* ------------------------------------------------------ Case generation *)

(* Case [i] draws everything from [split_at root i]: the parent never
   advances, so cases are independent and each is replayable from
   (seed, index) alone. *)
let generate_case config index =
  let root = Rng.make ~seed:config.seed in
  let case_rng = Rng.split_at root index in
  let rng_plan = Rng.split_at case_rng 0 in
  let rng_gen = Rng.split_at case_rng 1 in
  let rng_mut = Rng.split_at case_rng 2 in
  let max_qubits = max 2 config.max_qubits in
  let num_qubits = 2 + Rng.int rng_plan (max_qubits - 1) in
  let gates = 1 + Rng.int rng_plan (max 1 config.max_gates) in
  let left = Fuzz_gen.circuit config.profile rng_gen ~num_qubits ~gates in
  if Rng.int rng_plan 10 = 0 then
    (* Unrelated pair: no provable relation, pure inter-checker check. *)
    let gates' = 1 + Rng.int rng_plan (max 1 config.max_gates) in
    let right =
      Fuzz_gen.circuit config.profile (Rng.split_at case_rng 3) ~num_qubits ~gates:gates'
    in
    { index; left; right; expected = Fuzz_oracle.Expect_unknown; mutations = []; fault = None }
  else begin
    let left = ref left in
    let right = ref !left in
    let mutations = ref [] in
    let kinds = Fuzz_mutate.preserving_kinds in
    for _ = 1 to Rng.int rng_plan 4 do
      let kind = List.nth kinds (Rng.int rng_mut (List.length kinds)) in
      match Fuzz_mutate.apply kind rng_mut !right with
      | Some c ->
          right := c;
          mutations := Fuzz_mutate.kind_to_string kind :: !mutations
      | None -> ()
    done;
    (* Parameter renaming is pair-level (names match across the pair),
       so it mutates both sides at once.  Gated on the pair actually
       being symbolic: concrete profiles draw nothing extra from
       [rng_plan], keeping their cases bit-identical to older seeds. *)
    (if
       (Circuit.is_symbolic !left || Circuit.is_symbolic !right)
       && Rng.bool rng_plan
     then
       match Fuzz_mutate.rename_param (Rng.split_at case_rng 4) (!left, !right) with
       | Some (a, b) ->
           left := a;
           right := b;
           mutations := "rename-param" :: !mutations
       | None -> ());
    let left = !left in
    let mutations = List.rev !mutations in
    let fault =
      if Rng.bool rng_plan then
        match Workloads.inject_fault ~seed:(Rng.int rng_plan 1_000_000_000) !right with
        | Some (c, f) ->
            right := c;
            Some (Workloads.fault_to_string f)
        | None -> None
      else None
    in
    let expected =
      match fault with
      | Some _ -> Fuzz_oracle.Expect_not_equivalent
      | None -> Fuzz_oracle.Expect_equivalent
    in
    { index; left; right = !right; expected; mutations; fault }
  end

(* ---------------------------------------------------------------- Stats *)

type violation = {
  v_source : string;
  v_description : string;
  v_repro : string;
  v_gates : int;
  v_saved : string option;
}

type stats = {
  cases : int;
  failures : int;
  corpus_replayed : int;
  corpus_failures : int;
  corpus_new : int;
  mutations_applied : int;
  faults_injected : int;
  shrink_evaluations : int;
  violations : violation list;
  elapsed : float;
}

let repro_command config index =
  Printf.sprintf "oqec fuzz --profile %s --max-qubits %d --max-gates %d --seed %d --only %d"
    (Fuzz_gen.profile_to_string config.profile)
    config.max_qubits config.max_gates config.seed index

let total_gates a b = List.length (Circuit.ops a) + List.length (Circuit.ops b)

(* Direct dense replay of a recorded refuting stimulus.  The MANIFEST's
   [stimulus] field pins the index that refuted a witness pair, and the
   (seed, index) -> bits contract is the engine's own
   ({!Oqec_workloads.Workloads.random_bits} over {!Rng.split_at}), so
   the replay needs no search: prepare that one basis state, run both
   circuits, compare.  [None] when the pair is too wide to check
   densely. *)
let stimulus_still_refutes ~seed ~stimulus g g' =
  let g, g' = Oqec_qcec.Flatten.align g g' in
  let a = Oqec_qcec.Flatten.flatten g and b = Oqec_qcec.Flatten.flatten g' in
  let n = Circuit.num_qubits a in
  if n > Oqec_cert.Cert.max_witness_qubits then None
  else begin
    let bits = Workloads.random_bits (Rng.split_at (Rng.make ~seed) stimulus) n in
    let prep = ref (Circuit.create ~name:"stimulus" n) in
    for q = 0 to n - 1 do
      if bits.(q) then prep := Circuit.x !prep q
    done;
    let va = Unitary.basis_state n 0 in
    Unitary.apply_to_vector !prep va;
    let vb = Array.copy va in
    Unitary.apply_to_vector a va;
    Unitary.apply_to_vector b vb;
    let dot = ref Cx.zero in
    Array.iteri (fun i x -> dot := Cx.add !dot (Cx.mul (Cx.conj x) vb.(i))) va;
    Some (Cx.mag !dot < 1.0 -. 1e-6)
  end

(* ------------------------------------------------------------------ Run *)

let run ?(log = fun _ -> ()) config =
  let t0 = Unix.gettimeofday () in
  let oracle ~expected g g' =
    Fuzz_oracle.run ~timeout:config.timeout ?checkers:config.checkers ~seed:config.seed
      ~expected g g'
  in
  let violations = ref [] in
  let emit v = violations := v :: !violations in
  (* Corpus replay: yesterday's counterexamples must stay fixed. *)
  let corpus_entries = match config.corpus with Some dir -> Fuzz_corpus.load dir | None -> [] in
  let corpus_failures = ref 0 in
  (match config.corpus with
  | None -> ()
  | Some dir ->
      List.iter
        (fun (e : Fuzz_corpus.entry) ->
          let outcome =
            try
              let g, g' = Fuzz_corpus.load_pair dir e in
              (* A recorded refuting stimulus is re-checked directly
                 (no search): if it stopped refuting, either the pair
                 was mis-filed or the stimulus contract drifted. *)
              let stimulus_violation =
                match e.stimulus with
                | Some s when e.seed >= 0 -> (
                    match stimulus_still_refutes ~seed:e.seed ~stimulus:s g g' with
                    | Some false ->
                        Some
                          (Printf.sprintf
                             "recorded refuting stimulus #%d no longer refutes the pair" s)
                    | Some true | None -> None)
                | _ -> None
              in
              let violation =
                match stimulus_violation with
                | Some _ as v -> v
                | None -> (oracle ~expected:e.expected g g').Fuzz_oracle.violation
              in
              Option.map (fun desc -> (desc, total_gates g g')) violation
            with Sys_error msg | Failure msg -> Some ("replay error: " ^ msg, 0)
          in
          match outcome with
          | None -> ()
          | Some (desc, gates) ->
              incr corpus_failures;
              let repro = Printf.sprintf "oqec fuzz --corpus %s --runs 0" dir in
              log (Printf.sprintf "corpus %s: %s" e.id desc);
              log ("  repro: " ^ repro);
              emit
                {
                  v_source = "corpus " ^ e.id;
                  v_description = desc;
                  v_repro = repro;
                  v_gates = gates;
                  v_saved = None;
                })
        corpus_entries);
  (* Generated cases. *)
  let indices =
    match config.only with Some i -> [ i ] | None -> List.init (max 0 config.runs) Fun.id
  in
  let failures = ref 0 in
  let mutations_applied = ref 0 in
  let faults_injected = ref 0 in
  let shrink_evaluations = ref 0 in
  let corpus_new = ref 0 in
  List.iter
    (fun i ->
      let case = generate_case config i in
      mutations_applied := !mutations_applied + List.length case.mutations;
      if case.fault <> None then incr faults_injected;
      let result = oracle ~expected:case.expected case.left case.right in
      match result.Fuzz_oracle.violation with
      | None -> ()
      | Some desc ->
          incr failures;
          let repro = repro_command config i in
          log (Printf.sprintf "case %d: %s" i desc);
          log ("  repro: " ^ repro);
          (* Shrinking deletes gates, which invalidates the metamorphic
             expectation — so the shrink predicate replays the oracle
             expectation-free and minimises the raw inter-checker
             disagreement.  When the violation only exists relative to
             the expectation (a mutation-proof bug rather than a checker
             bug), the pair is kept whole. *)
          let still_fails a b =
            incr shrink_evaluations;
            (oracle ~expected:Fuzz_oracle.Expect_unknown a b).Fuzz_oracle.violation <> None
          in
          let left, right, entry_expected =
            if config.shrink && still_fails case.left case.right then begin
              let l, r, _ = Fuzz_shrink.shrink ~still_fails case.left case.right in
              (l, r, Fuzz_oracle.Expect_unknown)
            end
            else (case.left, case.right, case.expected)
          in
          let saved =
            match config.corpus with
            | None -> None
            | Some dir ->
                let id = Fuzz_corpus.id_of_pair left right in
                (* The refuting stimulus only describes the unshrunk
                   pair: shrinking rewrites the circuits, so the index
                   is dropped along with the expectation. *)
                let stimulus =
                  if entry_expected = Fuzz_oracle.Expect_not_equivalent then
                    Fuzz_oracle.refuting_stimulus result
                  else None
                in
                let entry =
                  { Fuzz_corpus.id; expected = entry_expected; seed = config.seed; index = i;
                    stimulus; note = desc }
                in
                if Fuzz_corpus.save ~dir entry left right then begin
                  incr corpus_new;
                  log (Printf.sprintf "  saved: %s (%d gates)" id (total_gates left right));
                  Some id
                end
                else None
          in
          emit
            {
              v_source = Printf.sprintf "case %d" i;
              v_description = desc;
              v_repro = repro;
              v_gates = total_gates left right;
              v_saved = saved;
            })
    indices;
  {
    cases = List.length indices;
    failures = !failures;
    corpus_replayed = List.length corpus_entries;
    corpus_failures = !corpus_failures;
    corpus_new = !corpus_new;
    mutations_applied = !mutations_applied;
    faults_injected = !faults_injected;
    shrink_evaluations = !shrink_evaluations;
    violations = List.rev !violations;
    elapsed = Unix.gettimeofday () -. t0;
  }

(* ----------------------------------------------------------------- JSON *)

let violation_to_json v =
  Printf.sprintf "{\"source\":%s,\"description\":%s,\"repro\":%s,\"gates\":%d,\"saved\":%s}"
    (Equivalence.json_string v.v_source)
    (Equivalence.json_string v.v_description)
    (Equivalence.json_string v.v_repro)
    v.v_gates
    (match v.v_saved with Some id -> Equivalence.json_string id | None -> "null")

let stats_to_json config s =
  Printf.sprintf
    "{\"schema\":\"oqec-fuzz/1\",\"profile\":%s,\"seed\":%d,\"runs\":%d,\"cases\":%d,\
     \"failures\":%d,\"corpus_replayed\":%d,\"corpus_failures\":%d,\"corpus_new\":%d,\
     \"mutations_applied\":%d,\"faults_injected\":%d,\"shrink_evaluations\":%d,\
     \"violations\":[%s],\"elapsed\":%.3f}"
    (Equivalence.json_string (Fuzz_gen.profile_to_string config.profile))
    config.seed config.runs s.cases s.failures s.corpus_replayed s.corpus_failures s.corpus_new
    s.mutations_applied s.faults_injected s.shrink_evaluations
    (String.concat "," (List.map violation_to_json s.violations))
    s.elapsed
