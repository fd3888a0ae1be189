(** The paper's combined strategy as a single {!Engine.CHECKER}: a short
    random-stimuli screen (at most 8 runs, with its own small time
    slice) followed by the miter-DD completeness argument.  A refuting
    screen short-circuits; otherwise the DD verdict is returned with the
    screen's simulation count merged in. *)

(** [checker ?session ?scheme ?table ()] is the ["combined"] checker;
    [scheme] selects the DD application scheme (default proportional;
    [Auto] resolves through [table]).  [session]
    runs the DD phase against the resident store (see
    {!Dd_checker.scheme_checker}); the simulation screen keeps its own
    fresh vector package either way. *)
val checker :
  ?session:Oqec_dd.Dd_session.t ->
  ?scheme:Dd_scheme.t ->
  ?table:Dd_dispatch.table ->
  unit ->
  Engine.checker
