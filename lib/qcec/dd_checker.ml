open Oqec_base
open Oqec_circuit
open Oqec_dd

(* DD-based checkers, rebuilt around the {!Miter} core: the exact
   checker is a driver that walks a miter under an
   {!Dd_scheme.APPLICATION_SCHEME}, so the hardwired alternating loop of
   the paper becomes one policy among several (and [auto] picks one per
   instance through {!Dd_dispatch}). *)

let verdict_of ctx m =
  let outcome = Miter.conclude m in
  let st = Miter.package_counters ctx (Miter.package m) in
  {
    Engine.outcome;
    peak_size = Dd.allocated (Miter.package m);
    final_size = Miter.live_size m;
    simulations = 0;
    note = "";
    dd = Some st;
    certificate = None;
  }

(* Fold both circuits into the miter under the scheme's side policy.
   The scheme is only consulted while both sides have gates; a lone
   surviving side is forced.  Deadline/cancellation polling happens
   inside the applications: gate application is the package's GC safe
   point and runs the engine hook. *)
let drive m (module S : Dd_scheme.APPLICATION_SCHEME) =
  while not (Miter.exhausted m) do
    let side =
      if Miter.left_remaining m = 0 then Dd_scheme.Right
      else if Miter.right_remaining m = 0 then Dd_scheme.Left
      else S.choose (Miter.probe m)
    in
    Miter.apply m side
  done

(* [Auto] resolves through the dispatch table per instance, on the
   caller's pair as given (the table's fingerprints were taken on it);
   the resolved scheme is recorded in the ["dd.scheme.<name>"] counter
   so [--json] reports show what actually ran. *)
let resolve ?table scheme p =
  match scheme with
  | Dd_scheme.Auto ->
      let g, g' = Flatten.source p in
      Dd_dispatch.choose ?table g g'
  | s -> s

let scheme_checker ?session ?(scheme = Dd_scheme.Proportional) ?table ?trace () :
    Engine.checker =
  (module struct
    let name = "dd-" ^ Dd_scheme.to_string scheme

    let run ctx p =
      let resolved = resolve ?table scheme p in
      Engine.Ctx.set ctx (Engine.Dd_scheme_used (Dd_scheme.to_string resolved)) 1;
      let m =
        Engine.Ctx.span ctx ~cat:"dd" "build-miter" (fun () ->
            let m = Miter.create ctx ?session ?trace p in
            drive m (Dd_scheme.impl resolved);
            m)
      in
      let v = Engine.Ctx.span ctx ~cat:"dd" "conclude" (fun () -> verdict_of ctx m) in
      (* Unpin the finished miter: resident packages outlive the
         request, and a pinned verdict per request would defeat the
         epoch sweep. *)
      Miter.release m;
      v
  end)

let reference : Engine.checker =
  (module struct
    let name = "reference-dd"

    let run ctx p =
      let a, b = Flatten.stripped p in
      let n = Circuit.num_qubits a in
      let pkg =
        Dd.create ?tol:(Engine.Ctx.tol ctx) ?gc_threshold:(Engine.Ctx.gc_threshold ctx)
          ()
      in
      Miter.hook_pkg ctx pkg;
      let build c =
        List.fold_left
          (fun acc op -> Dd_circuit.apply_op pkg n acc op)
          (Dd.identity pkg n) (Circuit.ops c)
      in
      let da = Engine.Ctx.span ctx ~cat:"dd" "build-left" (fun () -> build a) in
      (* Pin the first system matrix: building the second one runs
         through GC safe points, and the root comparison below needs
         canonicity. *)
      Dd.root pkg da;
      let db = Engine.Ctx.span ctx ~cat:"dd" "build-right" (fun () -> build b) in
      Dd.root pkg db;
      let outcome =
        if
          Dd.node_id da = Dd.node_id db
          && Float.abs (Cx.mag (Dd.weight pkg da) -. Cx.mag (Dd.weight pkg db)) < 1e-9
        then Equivalence.Equivalent
        else
          (* Canonicity says different roots mean different matrices,
             but close-to-tolerance cases deserve the numeric check. *)
          Miter.conclude_edge pkg n (Dd.mul pkg (Dd.adjoint pkg da) db)
      in
      let st = Miter.package_counters ctx pkg in
      {
        Engine.outcome;
        peak_size = Dd.allocated pkg;
        final_size = Dd.node_count pkg da + Dd.node_count pkg db;
        simulations = 0;
        note = "";
        dd = Some st;
        certificate = None;
      }
  end)

let approximate ~threshold ~fidelity : Engine.checker =
  (module struct
    let name = "approximate-dd"

    let run ctx p =
      let m =
        Engine.Ctx.span ctx ~cat:"dd" "build-miter" (fun () ->
            let m = Miter.create ctx p in
            drive m Dd_scheme.proportional;
            m)
      in
      let f = Miter.fidelity m in
      fidelity := f;
      let outcome =
        if f >= threshold then Equivalence.Equivalent else Equivalence.Not_equivalent
      in
      let st = Miter.package_counters ctx (Miter.package m) in
      {
        Engine.outcome;
        peak_size = Dd.allocated (Miter.package m);
        final_size = Miter.live_size m;
        simulations = 0;
        note = Printf.sprintf "(fidelity %.9f, threshold %g)" f threshold;
        dd = Some st;
        certificate = None;
      }
  end)

(* ----------------------------------------------- Compatibility wrappers *)

let ctx_of ?tol ?gc_threshold ?deadline ?cancel () =
  Engine.Ctx.make ?deadline
    ?cancel:(Option.map (fun flag () -> Atomic.get flag) cancel)
    ?tol ?gc_threshold ()

let check_miter ?scheme ?table ?tol ?gc_threshold ?trace ?deadline ?cancel g g' =
  let ctx = ctx_of ?tol ?gc_threshold ?deadline ?cancel () in
  Engine.run ~ctx ~method_used:Equivalence.Alternating_dd
    (scheme_checker ?scheme ?table ?trace ())
    g g'

let check_reference ?tol ?gc_threshold ?deadline ?cancel g g' =
  let ctx = ctx_of ?tol ?gc_threshold ?deadline ?cancel () in
  Engine.run ~ctx ~method_used:Equivalence.Reference_dd reference g g'

let check_approximate ?tol ?gc_threshold ?deadline ?sink ~threshold g g' =
  let ctx = Engine.Ctx.make ?deadline ?tol ?gc_threshold ?sink () in
  let fidelity = ref nan in
  let report =
    Engine.run ~ctx ~method_used:Equivalence.Alternating_dd
      (approximate ~threshold ~fidelity)
      g g'
  in
  (report, !fidelity)
