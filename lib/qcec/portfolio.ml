(* Parallel portfolio equivalence checking — the paper's actual Section
   6.1 configuration, generalised to a race combinator over any list of
   {!Engine.CHECKER}s: every entry runs on its own domain under its own
   derived execution context, and the first conclusive answer
   (Equivalent / Not_equivalent) wins.

   Cancellation protocol (cooperative, via [Atomic.t] flags polled at the
   checkers' existing safe points — DD gate applications, ZX rewriting
   loops, the per-gate simulation loop):

   - [stop_all] is set as soon as ANY worker is conclusive: non-drain
     workers (DD, ZX, stabilizer) abandon their work immediately.
   - [stop_drain] is set only when a non-drain worker is conclusive.
     Simulation shards are drain workers: when a sibling shard refutes,
     they are instead bounded by the shared minimal-refuting-index cell
     ([best], see {!Sim_checker.shard}) — they finish the still-relevant
     indices below [best] (a shrinking, cheap tail) and stop.  This
     drain is what makes the reported counterexample the global minimum
     of the stimulus stream — deterministic in the seed and independent
     of the shard count.

   Verdict determinism: every constituent checker is deterministic and
   sound, so whichever worker wins, a conclusive answer is the same one
   the sequential strategies would reach — racing only changes WHO
   answers (recorded in the report breakdown), never WHAT is answered. *)

open Oqec_base

let default_jobs () = max 1 (min 4 (Domain.recommended_domain_count () - 2))

type selection = { use_dd : bool; use_zx : bool; use_sim : bool; use_stab : bool }

let default_selection = { use_dd = true; use_zx = true; use_sim = true; use_stab = false }

let selection_of_string s =
  let parts =
    String.split_on_char ',' s |> List.map String.trim
    |> List.filter (fun p -> p <> "")
  in
  if parts = [] then Error "empty checker selection"
  else
    let rec build sel = function
      | [] -> Ok sel
      | "dd" :: rest -> build { sel with use_dd = true } rest
      | "zx" :: rest -> build { sel with use_zx = true } rest
      | "sim" :: rest -> build { sel with use_sim = true } rest
      | "stab" :: rest -> build { sel with use_stab = true } rest
      | p :: _ -> Error (Printf.sprintf "unknown checker %S (expected dd, zx, sim, stab)" p)
    in
    build { use_dd = false; use_zx = false; use_sim = false; use_stab = false } parts

let selection_to_string sel =
  String.concat ","
    (List.concat
       [
         (if sel.use_dd then [ "dd" ] else []);
         (if sel.use_zx then [ "zx" ] else []);
         (if sel.use_sim then [ "sim" ] else []);
         (if sel.use_stab then [ "stab" ] else []);
       ])

(* One racer: [drain] workers are bounded by their own shared-progress
   protocol instead of being force-cancelled when a sibling drain worker
   wins (see the protocol note above). *)
type entry = { checker : Engine.checker; drain : bool }

let entry ?(drain = false) checker = { checker; drain }
let entry_name e =
  let module C = (val e.checker : Engine.CHECKER) in
  C.name

type slot =
  | Finished of Engine.verdict * float  (* verdict, worker-side elapsed *)
  | Stopped of float  (* worker was cancelled after this many seconds *)
  | Failed of exn * Printexc.raw_backtrace

let conclusive = function
  | Finished (v, _) -> (
      match v.Engine.outcome with
      | Equivalence.Equivalent | Equivalence.Not_equivalent -> true
      | Equivalence.No_information | Equivalence.Timed_out -> false)
  | Stopped _ | Failed _ -> false

let checker_run name = function
  | Finished (v, t) ->
      {
        Equivalence.checker = name;
        run_outcome = v.Engine.outcome;
        run_elapsed = t;
        run_note = v.Engine.note;
      }
  | Stopped t ->
      {
        Equivalence.checker = name;
        run_outcome = Equivalence.No_information;
        run_elapsed = t;
        run_note = "(cancelled)";
      }
  | Failed (e, _) ->
      {
        Equivalence.checker = name;
        run_outcome = Equivalence.No_information;
        run_elapsed = 0.0;
        run_note = Printf.sprintf "(error: %s)" (Printexc.to_string e);
      }

(* [race ~ctx ~jobs ?resolve entries p] runs every entry on its own
   domain, all on the one prepared pair [p], and assembles the
   portfolio report.  [resolve] may remap the raw winning slot index to
   a display name and a canonical slot (used to surface the
   globally-minimal simulation counterexample). *)
let race ~ctx ?(jobs = 1) ?resolve entries p =
  let start = Mclock.now () in
  let entries = Array.of_list entries in
  let n = Array.length entries in
  if n = 0 then invalid_arg "Portfolio.race: no checkers";
  let stop_all = Atomic.make false in
  let stop_drain = Atomic.make false in
  let contexts =
    Array.mapi
      (fun i e ->
        let flag = if e.drain then stop_drain else stop_all in
        Engine.Ctx.worker ctx ~tid:(i + 2) ~cancel:(fun () -> Atomic.get flag) ())
      entries
  in
  let slots : slot option array = Array.make n None in
  let remaining = ref n in
  let m = Mutex.create () in
  let cv = Condition.create () in
  let run_worker i =
    let t0 = Mclock.now () in
    let s =
      match Engine.run_worker contexts.(i) entries.(i).checker p with
      | v -> Finished (v, Mclock.elapsed_since t0)
      | exception Equivalence.Cancelled -> Stopped (Mclock.elapsed_since t0)
      | exception e -> Failed (e, Printexc.get_raw_backtrace ())
    in
    Mutex.lock m;
    slots.(i) <- Some s;
    decr remaining;
    Condition.broadcast cv;
    Mutex.unlock m
  in
  let domains = Array.init n (fun i -> Domain.spawn (fun () -> run_worker i)) in
  let find_conclusive () =
    let rec go i =
      if i >= n then None
      else match slots.(i) with Some s when conclusive s -> Some i | _ -> go (i + 1)
    in
    go 0
  in
  Mutex.lock m;
  while !remaining > 0 && find_conclusive () = None do
    Condition.wait cv m
  done;
  let early = find_conclusive () in
  Mutex.unlock m;
  (* First conclusive answer wins: cancel the losers.  Drain workers are
     not force-cancelled when a sibling drain worker won — they finish
     their shrinking tail instead (see the protocol note). *)
  (match early with
  | Some i when entries.(i).drain -> Atomic.set stop_all true
  | Some _ ->
      Atomic.set stop_all true;
      Atomic.set stop_drain true
  | None -> ());
  Array.iter Domain.join domains;
  (* Surface unexpected worker crashes instead of masking them. *)
  Array.iter
    (function
      | Some (Failed (e, bt)) -> Printexc.raise_with_backtrace e bt
      | Some (Finished _ | Stopped _) | None -> ())
    slots;
  let verdict_of i = match slots.(i) with Some (Finished (v, _)) -> Some v | _ -> None in
  let winner =
    match early with
    | None -> None
    | Some i -> (
        match resolve with
        | None -> Some (entry_name entries.(i), Option.get (verdict_of i))
        | Some f ->
            let display, canonical = f i in
            let v =
              match verdict_of canonical with
              | Some v when v.Engine.outcome = Equivalence.Not_equivalent -> v
              | Some _ | None -> Option.get (verdict_of i)
            in
            Some (display, v))
  in
  let runs =
    List.init n (fun i -> checker_run (entry_name entries.(i)) (Option.get slots.(i)))
  in
  let engine_stats =
    List.init n (fun i ->
        let dd = Option.bind (verdict_of i) (fun v -> v.Engine.dd) in
        Engine.stats_of contexts.(i) ~name:(entry_name entries.(i)) dd)
  in
  let fold f init = Array.fold_left f init slots in
  let peak =
    fold
      (fun acc s ->
        match s with Some (Finished (v, _)) -> max acc v.Engine.peak_size | _ -> acc)
      0
  in
  let sims =
    fold
      (fun acc s ->
        match s with Some (Finished (v, _)) -> acc + v.Engine.simulations | _ -> acc)
      0
  in
  let any_timeout =
    Array.exists
      (function
        | Some (Finished (v, _)) -> v.Engine.outcome = Equivalence.Timed_out
        | _ -> false)
      slots
  in
  let outcome, final_size, note, winner_name =
    match winner with
    | Some (name, v) -> (v.Engine.outcome, v.Engine.final_size, v.Engine.note, Some name)
    | None ->
        ( (if any_timeout then Equivalence.Timed_out else Equivalence.No_information),
          0,
          "(no checker was conclusive)",
          None )
  in
  {
    Equivalence.outcome;
    method_used = Equivalence.Portfolio;
    elapsed = Mclock.elapsed_since start;
    peak_size = peak;
    final_size;
    simulations = sims;
    note;
    engine_stats;
    winner = winner_name;
    jobs;
    runs;
    certificate =
      (match winner with Some (_, v) -> v.Engine.certificate | None -> None);
    symbolic = None;
  }

(* DD racers for one race: a concrete scheme races alone (the historical
   behaviour), while [Auto] is resolved through the dispatch table and
   paired with a structurally different scheme — when the table's
   profile-guided pick is wrong for this instance, the diverse partner
   covers for it, at the cost of one extra domain. *)
let scheme_racers ?table scheme g g' =
  match scheme with
  | Dd_scheme.Auto ->
      let resolved = Dd_dispatch.choose ?table g g' in
      let diverse =
        if resolved = Dd_scheme.Lookahead then Dd_scheme.Proportional
        else Dd_scheme.Lookahead
      in
      [ resolved; diverse ]
  | s -> [ s ]

let check ?tol ?gc_threshold ?(sim_runs = 16) ?(seed = 1) ?jobs ?deadline
    ?(scheme = Dd_scheme.Proportional) ?table ?schemes
    ?(checkers = default_selection) ?sink g g' =
  let jobs = match jobs with Some j when j >= 1 -> j | Some _ | None -> default_jobs () in
  let ctx = Engine.Ctx.make ?deadline ?tol ?gc_threshold ~sim_runs ~seed ?sink () in
  (* Prepared once, before the race: every racer shares the record. *)
  let p = Engine.prepare ctx g g' in
  let best = Atomic.make max_int in
  let dd_schemes =
    match schemes with Some ss -> ss | None -> scheme_racers ?table scheme g g'
  in
  let fixed =
    List.concat
      [
        (if checkers.use_dd then
           List.map
             (fun s -> entry (Dd_checker.scheme_checker ~scheme:s ?table ()))
             dd_schemes
         else []);
        (if checkers.use_zx then [ entry Zx_checker.checker ] else []);
        (if checkers.use_stab then [ entry Stab_checker.checker ] else []);
      ]
  in
  let sim_base = List.length fixed in
  let shards =
    if checkers.use_sim then
      List.init jobs (fun s ->
          entry ~drain:true (Sim_checker.shard ~shard:s ~jobs ~best))
    else []
  in
  let entries = fixed @ shards in
  if entries = [] then invalid_arg "Portfolio.check: empty checker selection";
  (* When a simulation shard wins, the drain guarantees [best] holds the
     global minimal refuting stimulus index; its owner shard
     [sim_base + best mod jobs] carries the canonical counterexample
     note. *)
  let resolve i =
    if checkers.use_sim && i >= sim_base then
      ("simulation", sim_base + (Atomic.get best mod jobs))
    else (entry_name (List.nth entries i), i)
  in
  let jobs = if checkers.use_sim then jobs else 0 in
  race ~ctx ~jobs ~resolve entries p
