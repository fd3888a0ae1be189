open Oqec_circuit
open Oqec_stab

let checker : Engine.checker =
  (module struct
    let name = "stabilizer"

    let run ctx p =
      let a, b = Flatten.stripped p in
      let n = Circuit.num_qubits a in
      let tableau side c =
        Engine.Ctx.span ctx ~cat:"stab" ("tableau-" ^ side) (fun () ->
            let t = Tableau.of_circuit c in
            (* A conjugation tableau is 2n canonical stabilizer rows. *)
            Engine.Ctx.add ctx Engine.Stab_row (2 * n);
            t)
      in
      let outcome, note =
        match (tableau "left" a, tableau "right" b) with
        | ta, tb ->
            Engine.Ctx.check ctx;
            if Tableau.equal ta tb then (Equivalence.Equivalent, "")
            else (Equivalence.Not_equivalent, "(conjugation tableaus differ)")
        | exception Tableau.Not_clifford what ->
            (Equivalence.No_information, Printf.sprintf "(not a Clifford circuit: %s)" what)
      in
      {
        Engine.outcome;
        peak_size = 2 * n;
        final_size = 2 * n;
        simulations = 0;
        note;
        dd = None;
        certificate = None;
      }
  end)

let check ?deadline ?cancel g g' =
  let ctx =
    Engine.Ctx.make ?deadline
      ?cancel:(Option.map (fun flag () -> Atomic.get flag) cancel)
      ()
  in
  Engine.run ~ctx ~method_used:Equivalence.Stabilizer checker g g'
