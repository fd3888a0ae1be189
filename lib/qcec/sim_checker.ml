open Oqec_base
open Oqec_circuit
open Oqec_dd
open Oqec_workloads

let atomic_pred = Option.map (fun flag () -> Atomic.get flag)

(* Stimulus [i] is a pure function of (seed, i): its bits come from the
   [i]th indexed split of the base generator (see {!Rng.split_at}), so a
   shard checking indices {s, s+k, ...} sees exactly the bits the
   sequential checker uses at those indices — counterexamples are
   identical for a given seed no matter how stimuli are spread over
   workers. *)
let stimulus_bits ~seed ~index n =
  Workloads.random_bits (Rng.split_at (Rng.make ~seed) index) n

(* The runs evolve the stripped pair.  Stimulus [i] on the stripped
   register is full-width stimulus [i] restricted to the kept wires: an
   idle wire holds the same basis state on both sides and contributes
   an overlap of exactly 1, so refuting indices and fidelities are
   those of the full-width pair. *)
type setup = {
  pkg : Dd.pkg;
  n : int;  (* stripped width *)
  prepared : Flatten.prepared;
  dds_a : Dd.edge list;
  dds_b : Dd.edge list;
  check : unit -> unit;
}

let setup ctx ~check p =
  let a, b = Flatten.stripped p in
  let n = Circuit.num_qubits a in
  let pkg =
    Dd.create ?tol:(Engine.Ctx.tol ctx) ?gc_threshold:(Engine.Ctx.gc_threshold ctx) ()
  in
  (* Build every gate DD once; the runs only pay for state evolution.
     The gate DDs are reused across runs, so they are pinned as GC
     roots: no collection may invalidate them. *)
  let dds c = List.concat_map (Dd_circuit.op_dds pkg n) (Circuit.ops c) in
  let dds_a = dds a and dds_b = dds b in
  List.iter (Dd.root pkg) dds_a;
  List.iter (Dd.root pkg) dds_b;
  { pkg; n; prepared = p; dds_a; dds_b; check }

(* One random-stimulus run: [Some fidelity] is a mismatch proof,
   [None] means the outputs agree on this input. *)
let run_stimulus p ~seed ~index =
  let bits = stimulus_bits ~seed ~index (Flatten.width p.prepared) in
  let wires = Flatten.wires p.prepared in
  let input () = Dd.kets_bits p.pkg p.n (fun q -> bits.(wires.(q))) in
  let apply gs v =
    List.fold_left
      (fun acc gdd ->
        p.check ();
        Dd.mul_vec p.pkg gdd acc)
      v gs
  in
  let va = apply p.dds_a (input ()) in
  let vb = apply p.dds_b (input ()) in
  let fidelity = Cx.mag (Dd.inner p.pkg va vb) in
  if fidelity < 1.0 -. 1e-9 then Some fidelity else None

let defaults ctx =
  ( Option.value (Engine.Ctx.sim_runs ctx) ~default:16,
    Option.value (Engine.Ctx.seed ctx) ~default:1 )

(* Export a refuting stimulus as a standalone witness certificate on
   the full-width pair: the preparation circuit rebuilds the random
   basis state from (seed, index), so the artifact replays without the
   RNG.  Marginal refutations (fidelity within 1e-6 of 1) are not
   certified — the validator re-checks by dense simulation under
   exactly that threshold. *)
let witness_certificate p ~seed ~index ~fidelity =
  let width = Flatten.width p.prepared in
  if width <= Oqec_cert.Cert.max_witness_qubits && fidelity < 1.0 -. 1e-6 then begin
    let bits = stimulus_bits ~seed ~index width in
    let prep = ref (Circuit.create ~name:"stimulus" width) in
    for q = 0 to width - 1 do
      if bits.(q) then prep := Circuit.x !prep q
    done;
    let a, b = Flatten.full p.prepared in
    Some (Oqec_cert.Cert.Witness { a; b; index; prep = !prep; fidelity })
  end
  else None

let verdict_of ?certificate ~outcome ~performed ~note p =
  {
    Engine.outcome;
    peak_size = Dd.allocated p.pkg;
    final_size = 0;
    simulations = performed;
    note;
    dd = Some (Dd.stats p.pkg);
    certificate;
  }

let checker : Engine.checker =
  (module struct
    let name = "simulation"

    let run ctx p =
      let runs, seed = defaults ctx in
      let p =
        Engine.Ctx.span ctx ~cat:"sim" "prepare" (fun () ->
            setup ctx ~check:(fun () -> Engine.Ctx.check ctx) p)
      in
      Engine.Ctx.span ctx ~cat:"sim" "stimuli" (fun () ->
          let rec scan i =
            if i >= runs then (Equivalence.No_information, runs, None)
            else
              match run_stimulus p ~seed ~index:i with
              | Some fid ->
                  Engine.Ctx.incr ctx Engine.Sim_stimulus;
                  (Equivalence.Not_equivalent, i + 1, Some (i, fid))
              | None ->
                  Engine.Ctx.incr ctx Engine.Sim_stimulus;
                  scan (i + 1)
          in
          let outcome, performed, refuted = scan 0 in
          let note =
            match (outcome, refuted) with
            | Equivalence.No_information, _ ->
                Printf.sprintf "(all %d random stimuli agreed)" performed
            | _, Some (i, fid) ->
                Printf.sprintf "(stimulus #%d refutes, fidelity %.9f)" i fid
            | _, None -> ""
          in
          let certificate =
            Option.bind refuted (fun (i, fid) ->
                witness_certificate p ~seed ~index:i ~fidelity:fid)
          in
          verdict_of ?certificate ~outcome ~performed ~note p)
  end)

(* The portfolio worker over stimulus indices {shard, shard+jobs, ...}.
   [best] is the shared minimal-refuting-index cell; see the interface
   for the protocol that makes the reported counterexample the global
   minimum independent of [jobs]. *)
let shard ~shard ~jobs ~best : Engine.checker =
  if shard < 0 || jobs <= 0 || shard >= jobs then
    invalid_arg "Sim_checker.shard: need 0 <= shard < jobs";
  (module struct
    let name = Printf.sprintf "simulation-%d" shard

    let run ctx p =
      let runs, seed = defaults ctx in
      (* Abandon the current stimulus as soon as its index can no
         longer be the minimal counterexample: [best] only ever
         decreases, so work at or above it is dead.  Indices below
         [best] must still be checked even after another shard refutes
         — that is what makes the reported counterexample the global
         minimum, independent of the shard count. *)
      let current = ref max_int in
      let gd =
        Equivalence.Guard.make
          ?deadline:(Engine.Ctx.deadline ctx)
          ~cancel:(fun () -> Engine.Ctx.cancelled ctx || !current >= Atomic.get best)
          ()
      in
      let p = setup ctx ~check:(fun () -> Equivalence.Guard.check gd) p in
      (* Lower [best] to [i] unless a smaller refutation is recorded. *)
      let rec publish i =
        let b = Atomic.get best in
        if i < b && not (Atomic.compare_and_set best b i) then publish i
      in
      let performed = ref 0 in
      let refuted = ref None in
      let rec scan i =
        if i < runs && i < Atomic.get best then begin
          current := i;
          (match run_stimulus p ~seed ~index:i with
          | Some fid ->
              incr performed;
              Engine.Ctx.incr ctx Engine.Sim_stimulus;
              publish i;
              if !refuted = None then refuted := Some (i, fid)
          | None ->
              incr performed;
              Engine.Ctx.incr ctx Engine.Sim_stimulus
          | exception Equivalence.Cancelled
            when !current >= Atomic.get best && not (Engine.Ctx.cancelled ctx) ->
              (* Only this stimulus became irrelevant; lower indices in
                 this shard are still checked by the [scan] condition
                 above. *)
              ());
          current := max_int;
          scan (i + jobs)
        end
      in
      scan shard;
      let outcome, note =
        match !refuted with
        | Some (i, fid) ->
            ( Equivalence.Not_equivalent,
              Printf.sprintf "(stimulus #%d refutes, fidelity %.9f)" i fid )
        | None ->
            if Atomic.get best < max_int then
              (Equivalence.No_information, "(another shard refuted first)")
            else
              (Equivalence.No_information, Printf.sprintf "(%d stimuli agreed)" !performed)
      in
      let certificate =
        Option.bind !refuted (fun (i, fid) ->
            witness_certificate p ~seed ~index:i ~fidelity:fid)
      in
      verdict_of ?certificate ~outcome ~performed:!performed ~note p
  end)

(* ----------------------------------------------- Compatibility wrappers *)

let check ?tol ?gc_threshold ?(runs = 16) ?(seed = 1) ?deadline ?cancel g g' =
  let ctx =
    Engine.Ctx.make ?tol ?gc_threshold ~sim_runs:runs ~seed ?deadline
      ?cancel:(atomic_pred cancel) ()
  in
  Engine.run ~ctx ~method_used:Equivalence.Simulation checker g g'

let check_shard ?tol ?gc_threshold ?deadline ?cancel ~runs ~seed ~shard:s ~jobs ~best g
    g' =
  let ctx =
    Engine.Ctx.make ?tol ?gc_threshold ~sim_runs:runs ~seed ?deadline
      ?cancel:(atomic_pred cancel) ()
  in
  Engine.run ~ctx ~method_used:Equivalence.Simulation
    (shard ~shard:s ~jobs ~best)
    g g'
