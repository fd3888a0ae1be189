open Oqec_base
open Oqec_circuit

(* Equivalence checking of circuits with symbolic parameters, after
   mqt-qcec's parameterized flow: try the ZX engine on the symbolic pair
   first (spider phases are linear expressions, so fusion cancels
   template pairs for {e every} assignment), and fall back to checking
   K random concrete instantiations with the combined engine.  A
   refuting instantiation is a proof of non-equivalence; agreement on
   all K instantiations is statistical evidence of equivalence (a
   non-equivalent linear-parameter pair disagrees on all but a
   measure-zero set of assignments, so independent random points each
   catch it with overwhelming probability). *)

let default_instantiations = 10
let default_param_seed = 7

let joint_variables g g' =
  List.sort_uniq String.compare (Circuit.variables g @ Circuit.variables g')

(* Instantiation [k] is a pure function of [(param_seed, k)]
   ({!Rng.split_at}: the root generator never advances), so a reported
   refuting assignment is reproducible from the printed seed alone, and
   the verdict cannot depend on scheduling.  Angles are odd multiples of
   pi/64: exact dyadic rationals that avoid the Clifford subgroup, where
   distinct linear phase functions are most likely to collide. *)
let assignment ~param_seed k vars =
  let rng = Rng.split_at (Rng.make ~seed:param_seed) k in
  List.map (fun v -> (v, Phase.of_pi_fraction (1 + (2 * Rng.int rng 64)) 64)) vars

let check ?timeout ?tol ?gc_threshold ?(sim_runs = 16) ?(seed = 1) ?scheme ?table
    ?sink ?(instantiations = default_instantiations)
    ?(param_seed = default_param_seed) g g' =
  let start = Mclock.now () in
  let deadline = Option.map (fun t -> start +. t) timeout in
  let ctx = Engine.Ctx.make ?deadline ?tol ?gc_threshold ~sim_runs ~seed ?sink () in
  let vars = joint_variables g g' in
  if vars = [] then
    (* Fully concrete after all: the combined engine decides directly. *)
    Engine.run ~ctx ~method_used:Equivalence.Combined
      (Combined_checker.checker ?scheme ?table ())
      g g'
  else begin
    (* Phase 1: the ZX engine on the symbolic pair. *)
    let zx_verdict =
      Engine.run_worker ctx Zx_checker.checker (Engine.prepare ctx g g')
    in
    let zx_elapsed = Mclock.elapsed_since start in
    let zx_run =
      {
        Equivalence.checker = "zx-symbolic";
        run_outcome = zx_verdict.Engine.outcome;
        run_elapsed = zx_elapsed;
        run_note = zx_verdict.Engine.note;
      }
    in
    let zx_stats = Engine.stats_of ctx ~name:"zx-symbolic" zx_verdict.Engine.dd in
    match zx_verdict.Engine.outcome with
    | Equivalence.Equivalent | Equivalence.Not_equivalent ->
        {
          Equivalence.outcome = zx_verdict.Engine.outcome;
          method_used = Equivalence.Zx_calculus;
          elapsed = zx_elapsed;
          peak_size = zx_verdict.Engine.peak_size;
          final_size = zx_verdict.Engine.final_size;
          simulations = 0;
          note = zx_verdict.Engine.note;
          engine_stats = [ zx_stats ];
          winner = Some "zx-symbolic";
          jobs = 1;
          runs = [ zx_run ];
          certificate = zx_verdict.Engine.certificate;
          symbolic = Some (Equivalence.Proven_symbolic { variables = vars });
        }
    | Equivalence.No_information | Equivalence.Timed_out ->
        (* Phase 2: K concrete instantiations through the combined
           engine.  The loop is sequential and stops at the first
           refutation, so the reported assignment is the one with the
           smallest index — independent of machine and of [--jobs]. *)
        let checker = Combined_checker.checker ?scheme ?table () in
        let runs = ref [ zx_run ] in
        let stats = ref [ zx_stats ] in
        let refuting = ref None in
        let outcome = ref Equivalence.Equivalent in
        let performed = ref 0 in
        let peak = ref zx_verdict.Engine.peak_size in
        let final = ref 0 in
        let sims = ref 0 in
        let k = ref 0 in
        let continue = ref true in
        while !continue && !k < instantiations do
          let asg = assignment ~param_seed !k vars in
          let gi = Circuit.instantiate asg g and gi' = Circuit.instantiate asg g' in
          let name = Printf.sprintf "inst-%d" !k in
          let wctx = Engine.Ctx.worker ctx ~tid:(!k + 2) () in
          let t0 = Mclock.now () in
          let v = Engine.run_worker wctx checker (Engine.prepare wctx gi gi') in
          incr performed;
          runs :=
            {
              Equivalence.checker = name;
              run_outcome = v.Engine.outcome;
              run_elapsed = Mclock.elapsed_since t0;
              run_note = v.Engine.note;
            }
            :: !runs;
          stats := Engine.stats_of wctx ~name v.Engine.dd :: !stats;
          peak := max !peak v.Engine.peak_size;
          final := v.Engine.final_size;
          sims := !sims + v.Engine.simulations;
          (match v.Engine.outcome with
          | Equivalence.Equivalent -> ()
          | Equivalence.Not_equivalent ->
              refuting := Some asg;
              outcome := Equivalence.Not_equivalent;
              continue := false
          | (Equivalence.No_information | Equivalence.Timed_out) as o ->
              outcome := o;
              continue := false);
          incr k
        done;
        let note =
          match !outcome with
          | Equivalence.Equivalent ->
              Printf.sprintf
                "(equivalent at %d random instantiation%s; statistical, not a proof)"
                !performed
                (if !performed = 1 then "" else "s")
          | Equivalence.Not_equivalent ->
              Printf.sprintf "(refuted at instantiation %d of param-seed %d)" (!k - 1)
                param_seed
          | Equivalence.No_information | Equivalence.Timed_out -> ""
        in
        {
          Equivalence.outcome = !outcome;
          method_used = Equivalence.Combined;
          elapsed = Mclock.elapsed_since start;
          peak_size = !peak;
          final_size = !final;
          simulations = !sims;
          note;
          engine_stats = List.rev !stats;
          winner = None;
          jobs = 1;
          runs = List.rev !runs;
          (* The instantiated pair's witness would not replay against the
             symbolic source files; the refuting assignment below is the
             reproducible evidence instead. *)
          certificate = None;
          symbolic =
            Some
              (Equivalence.Instantiated
                 {
                   variables = vars;
                   instantiations = !performed;
                   param_seed;
                   refuting = !refuting;
                 });
        }
  end
