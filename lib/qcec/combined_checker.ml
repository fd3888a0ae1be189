open Oqec_base

(* Sequential emulation of the paper's parallel configuration: a short
   random-stimuli screen runs first (in the parallel original, the
   alternating checker would terminate the remaining simulations anyway),
   the completeness argument second.  The screen gets its own small time
   slice: on simulation-hostile circuits (QFT-like output states have
   exponential vector DDs) the parallel original would simply cancel the
   simulations, so blocking on them here would distort the comparison. *)
let checker ?session ?scheme ?table () : Engine.checker =
  (module struct
    let name = "combined"

    let run ctx p =
      let screen_runs = min (Option.value (Engine.Ctx.sim_runs ctx) ~default:16) 8 in
      let now = Mclock.now () in
      let screen_deadline =
        match Engine.Ctx.deadline ctx with
        | Some d -> Float.min (now +. Float.min 5.0 ((d -. now) /. 10.0)) d
        | None -> now +. 5.0
      in
      let sctx =
        Engine.Ctx.with_sim_runs (Engine.Ctx.with_deadline ctx screen_deadline) screen_runs
      in
      let module Sim = (val Sim_checker.checker : Engine.CHECKER) in
      let screen =
        (* A screen that exhausts its slice is simply inconclusive; only
           the overall deadline (enforced by [ctx]'s own guard in the DD
           phase) times the combined check out. *)
        match Engine.Ctx.span ctx ~cat:"sim" "screen" (fun () -> Sim.run sctx p) with
        | v -> Some v
        | exception Equivalence.Timeout -> None
      in
      match screen with
      | Some v when v.Engine.outcome = Equivalence.Not_equivalent -> v
      | Some _ | None ->
          let sims =
            match screen with Some v -> v.Engine.simulations | None -> 0
          in
          let module Dd =
            (val Dd_checker.scheme_checker ?session ?scheme ?table ()
                : Engine.CHECKER)
          in
          let v = Dd.run ctx p in
          { v with Engine.simulations = sims }
  end)
