open Oqec_base

type strategy = Reference | Alternating | Simulation | Zx | Combined | Clifford | Portfolio

let strategy_to_string = function
  | Reference -> "reference"
  | Alternating -> "alternating"
  | Simulation -> "simulation"
  | Zx -> "zx"
  | Combined -> "combined"
  | Clifford -> "clifford"
  | Portfolio -> "portfolio"

let strategy_of_string = function
  | "reference" -> Some Reference
  | "alternating" -> Some Alternating
  | "simulation" -> Some Simulation
  | "zx" -> Some Zx
  | "combined" -> Some Combined
  | "clifford" -> Some Clifford
  | "portfolio" -> Some Portfolio
  | _ -> None

(* The differential-oracle checker set: one complete checker (dd), two
   one-sided ones (zx proves either verdict but may get stuck, sim only
   refutes) and one fragment-complete one (stab, Clifford only). *)
let oracle_checkers () =
  [
    ("dd", Equivalence.Alternating_dd, Dd_checker.scheme_checker ());
    ("zx", Equivalence.Zx_calculus, Zx_checker.checker);
    ("sim", Equivalence.Simulation, Sim_checker.checker);
    ("stab", Equivalence.Stabilizer, Stab_checker.checker);
  ]

(* Every strategy is a CHECKER run by the engine: timing, deadline and
   cancellation polling, counter accounting and report assembly are
   centralised in {!Engine.run}; the portfolio is the same thing raced
   over several workers. *)
let check ?(strategy = Combined) ?timeout ?tol ?gc_threshold ?(sim_runs = 16) ?(seed = 1)
    ?jobs ?scheme ?table ?checkers ?session ?sink ?instantiations ?param_seed g g' =
  let symbolic =
    Oqec_circuit.Circuit.is_symbolic g || Oqec_circuit.Circuit.is_symbolic g'
  in
  if symbolic && strategy <> Zx then
    (* Symbolic parameters route every numeric strategy through the
       instantiation checker (ZX-symbolic first, K instantiations as the
       fallback); only an explicit Zx request runs natively symbolic. *)
    Param_checker.check ?timeout ?tol ?gc_threshold ~sim_runs ~seed ?scheme ?table
      ?sink ?instantiations ?param_seed g g'
  else
    let deadline = Option.map (fun t -> Mclock.now () +. t) timeout in
    let ctx = Engine.Ctx.make ?deadline ?tol ?gc_threshold ~sim_runs ~seed ?sink () in
    let run method_used checker = Engine.run ~ctx ~method_used checker g g' in
    match strategy with
    | Reference -> run Equivalence.Reference_dd Dd_checker.reference
    | Alternating ->
        run Equivalence.Alternating_dd
          (Dd_checker.scheme_checker ?session ?scheme ?table ())
    | Simulation -> run Equivalence.Simulation Sim_checker.checker
    | Zx ->
        let r = run Equivalence.Zx_calculus Zx_checker.checker in
        if not symbolic then r
        else begin
          let variables = Param_checker.joint_variables g g' in
          match r.Equivalence.outcome with
          | Equivalence.Equivalent | Equivalence.Not_equivalent ->
              { r with symbolic = Some (Equivalence.Proven_symbolic { variables }) }
          | Equivalence.No_information | Equivalence.Timed_out -> r
        end
    | Clifford -> run Equivalence.Stabilizer Stab_checker.checker
    | Combined ->
        run Equivalence.Combined
          (Combined_checker.checker ?session ?scheme ?table ())
    | Portfolio ->
        Portfolio.check ?tol ?gc_threshold ~sim_runs ~seed ?jobs ?deadline ?scheme ?table
          ?checkers ?sink g g'
