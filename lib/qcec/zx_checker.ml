open Oqec_base
open Oqec_zx

let checker : Engine.checker =
  (module struct
    let name = "zx-calculus"

    (* The full-width pair: proof step ids and certificate bytes are
       those of the unstripped miter. *)
    let run ctx p =
      let a, b = Flatten.full p in
      let diagram =
        Engine.Ctx.span ctx ~cat:"zx" "build-miter" (fun () -> Zx_circuit.of_miter a b)
      in
      (* Boundary vertices are never created or destroyed by the rewrite
         passes, so live and peak spider counts are vertex counts minus
         this constant. *)
      let boundaries = Zx_graph.num_vertices diagram - Zx_graph.spider_count diagram in
      let observe rule count =
        Engine.Ctx.add ctx (Engine.Zx_rewrite rule) count;
        Engine.Ctx.gauge ctx "zx.spiders" (Zx_graph.num_vertices diagram - boundaries)
      in
      (* The incremental engine also reports its live worklist length;
         the gauge keeps the peak under "zx.worklist.peak" so --trace
         shows how much re-enqueued work the rewrites generated. *)
      let on_pending n = Engine.Ctx.gauge ctx "zx.worklist" n in
      (* Record the fired rewrites as certificate steps; the list only
         becomes a certificate when the reduction proves equivalence. *)
      let steps = ref [] in
      let record s = steps := s :: !steps in
      let completed =
        Engine.Ctx.span ctx ~cat:"zx" "full-reduce" (fun () ->
            Zx_simplify.full_reduce ~should_stop:(Engine.Ctx.stopper ctx) ~observe
              ~on_pending ~record diagram)
      in
      let after = Zx_graph.spider_count diagram in
      (* [should_stop] swallows the guard's exceptions; re-raise
         cancellation so a losing portfolio worker is reported as
         cancelled, not as a timeout. *)
      if (not completed) && Engine.Ctx.cancelled ctx then raise Equivalence.Cancelled;
      let outcome =
        if not completed then Equivalence.Timed_out
        else
          match Zx_simplify.extract_permutation diagram with
          | Some p when Perm.is_identity p -> Equivalence.Equivalent
          | Some _ -> Equivalence.Not_equivalent
          | None -> Equivalence.No_information
      in
      {
        Engine.outcome;
        (* The running peak over the diagram's whole lifetime — rewrites
           such as boundary pivoting and gadgetization grow the graph
           transiently before shrinking it, which a before/after spider
           count cannot see. *)
        peak_size = Zx_graph.peak_vertices diagram - boundaries;
        final_size = after;
        simulations = 0;
        note =
          (match outcome with
          | Equivalence.No_information ->
              Printf.sprintf "(%d spiders remain; strong indication of non-equivalence)"
                after
          | Equivalence.Equivalent | Equivalence.Not_equivalent | Equivalence.Timed_out ->
              "");
        dd = None;
        certificate =
          (match outcome with
          | Equivalence.Equivalent
          (* The certificate wire format serialises phases as exact
             num/den pairs; symbolic phases have no such encoding, so a
             symbolically-proven pair ships without a replayable
             certificate. *)
            when
              not
                (Oqec_circuit.Circuit.is_symbolic a
                || Oqec_circuit.Circuit.is_symbolic b) ->
              Some (Oqec_cert.Cert.Zx_proof { a; b; steps = List.rev !steps })
          | Equivalence.Equivalent | Equivalence.Not_equivalent
          | Equivalence.No_information | Equivalence.Timed_out ->
              None);
      }
  end)

let check ?deadline ?cancel g g' =
  let ctx =
    Engine.Ctx.make ?deadline
      ?cancel:(Option.map (fun flag () -> Atomic.get flag) cancel)
      ()
  in
  Engine.run ~ctx ~method_used:Equivalence.Zx_calculus checker g g'
