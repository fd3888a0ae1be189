open Oqec_base

module Trace = struct
  type event =
    | Span of { name : string; cat : string; tid : int; ts_ns : int64; dur_ns : int64 }
    | Count of { name : string; tid : int; ts_ns : int64; value : int }

  type sink = { live : bool; epoch : int64; events : event list Atomic.t }

  let null = { live = false; epoch = 0L; events = Atomic.make [] }
  let create () = { live = true; epoch = Mclock.now_ns (); events = Atomic.make [] }
  let active s = s.live

  (* Lock-free push: racing domains retry on CAS failure.  The list is
     newest-first; readers reverse it. *)
  let emit s ev =
    if s.live then begin
      let rec go () =
        let old = Atomic.get s.events in
        if not (Atomic.compare_and_set s.events old (ev :: old)) then go ()
      in
      go ()
    end

  let events s = List.rev (Atomic.get s.events)

  (* Chrome trace_event timestamps are microseconds (floats allowed). *)
  let us ns = Int64.to_float ns /. 1e3

  let event_to_json = function
    | Span { name; cat; tid; ts_ns; dur_ns } ->
        Printf.sprintf
          "{\"name\":%s,\"cat\":%s,\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d}"
          (Equivalence.json_string name)
          (Equivalence.json_string cat)
          (us ts_ns) (us dur_ns) tid
    | Count { name; tid; ts_ns; value } ->
        Printf.sprintf
          "{\"name\":%s,\"cat\":\"counter\",\"ph\":\"C\",\"ts\":%.3f,\"pid\":1,\"tid\":%d,\"args\":{\"value\":%d}}"
          (Equivalence.json_string name)
          (us ts_ns) tid value

  let to_chrome_json s =
    let buf = Buffer.create 4096 in
    Buffer.add_string buf "{\"traceEvents\":[";
    List.iteri
      (fun i ev ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_string buf (event_to_json ev))
      (events s);
    Buffer.add_string buf "],\"displayTimeUnit\":\"ms\"}";
    Buffer.contents buf

  let totals s =
    let tbl = Hashtbl.create 16 in
    List.iter
      (function
        | Span { name; dur_ns; _ } ->
            let prev = Option.value (Hashtbl.find_opt tbl name) ~default:0L in
            Hashtbl.replace tbl name (Int64.add prev dur_ns)
        | Count _ -> ())
      (events s);
    Hashtbl.fold (fun k v acc -> (k, Int64.to_float v *. 1e-9) :: acc) tbl []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
end

type counter =
  | Dd_gate_applied
  | Dd_left_applied
  | Dd_right_applied
  | Dd_scheme_used of string
  | Dd_gc_run
  | Dd_cache_hit
  | Dd_arena_compaction
  | Prepare_width
  | Prepare_kept
  | Zx_rewrite of string
  | Sim_stimulus
  | Stab_row

let counter_key = function
  | Dd_gate_applied -> "dd.gates_applied"
  | Dd_left_applied -> "dd.left_applied"
  | Dd_right_applied -> "dd.right_applied"
  | Dd_scheme_used scheme -> "dd.scheme." ^ scheme
  | Dd_gc_run -> "dd.gc_runs"
  | Dd_cache_hit -> "dd.cache_hits"
  | Dd_arena_compaction -> "dd.arena_compactions"
  | Prepare_width -> "prepare.width"
  | Prepare_kept -> "prepare.kept"
  | Zx_rewrite rule -> "zx.rewrites." ^ rule
  | Sim_stimulus -> "sim.stimuli"
  | Stab_row -> "stab.rows_canonicalized"

module Ctx = struct
  type t = {
    deadline : float option;
    cancel : (unit -> bool) option;
    tol : float option;
    gc_threshold : int option;
    sim_runs : int option;
    seed : int option;
    sink : Trace.sink;
    tid : int;
    guard : Equivalence.Guard.t;
    counters : (string, int ref) Hashtbl.t;
    (* Per-key timestamp of the last trace counter sample, to keep
       high-frequency counters (one bump per gate) from flooding the
       trace.  Single-owner like the rest of the context. *)
    last_sample : (string, int64) Hashtbl.t;
  }

  let make ?deadline ?cancel ?tol ?gc_threshold ?sim_runs ?seed ?(sink = Trace.null) () =
    {
      deadline;
      cancel;
      tol;
      gc_threshold;
      sim_runs;
      seed;
      sink;
      tid = 1;
      guard = Equivalence.Guard.make ?deadline ?cancel ();
      counters = Hashtbl.create 8;
      last_sample = Hashtbl.create 8;
    }

  let worker ctx ~tid ?cancel () =
    {
      ctx with
      tid;
      cancel;
      guard = Equivalence.Guard.make ?deadline:ctx.deadline ?cancel ();
      counters = Hashtbl.create 8;
      last_sample = Hashtbl.create 8;
    }

  let with_sim_runs ctx n = { ctx with sim_runs = Some n }

  (* Counters stay shared: the derived context is the same logical
     worker under a tighter deadline (e.g. the combined strategy's
     simulation screen). *)
  let with_deadline ctx d =
    {
      ctx with
      deadline = Some d;
      guard = Equivalence.Guard.make ~deadline:d ?cancel:ctx.cancel ();
    }

  let deadline ctx = ctx.deadline
  let tol ctx = ctx.tol
  let gc_threshold ctx = ctx.gc_threshold
  let sim_runs ctx = ctx.sim_runs
  let seed ctx = ctx.seed
  let sink ctx = ctx.sink
  let tid ctx = ctx.tid
  let rng_at ctx i = Rng.split_at (Rng.make ~seed:(Option.value ctx.seed ~default:0)) i
  let check ctx = Equivalence.Guard.check ctx.guard
  let stopper ctx = Equivalence.Guard.stopper ctx.guard
  let cancelled ctx = Equivalence.Guard.cancelled ctx.guard

  (* Trace counter tracks are sampled at most once per millisecond per
     key; the exact totals always land in the report's engine_stats. *)
  let sample_every_ns = 1_000_000L

  let sample ctx key value =
    if Trace.active ctx.sink then begin
      let now = Mclock.now_ns () in
      let due =
        match Hashtbl.find_opt ctx.last_sample key with
        | None -> true
        | Some last -> Int64.sub now last >= sample_every_ns
      in
      if due then begin
        Hashtbl.replace ctx.last_sample key now;
        Trace.emit ctx.sink
          (Trace.Count
             { name = key; tid = ctx.tid; ts_ns = Int64.sub now ctx.sink.Trace.epoch; value })
      end
    end

  let bump ctx key n =
    let cell =
      match Hashtbl.find_opt ctx.counters key with
      | Some cell -> cell
      | None ->
          let cell = ref 0 in
          Hashtbl.add ctx.counters key cell;
          cell
    in
    cell := !cell + n;
    sample ctx key !cell

  let add ctx c n = bump ctx (counter_key c) n
  let incr ctx c = add ctx c 1

  let set ctx c v =
    let key = counter_key c in
    Hashtbl.replace ctx.counters key (ref v);
    sample ctx key v

  let gauge ctx key v =
    let peak_key = key ^ ".peak" in
    (match Hashtbl.find_opt ctx.counters peak_key with
    | Some cell -> if v > !cell then cell := v
    | None -> Hashtbl.add ctx.counters peak_key (ref v));
    sample ctx key v

  let counters ctx =
    Hashtbl.fold (fun k v acc -> (k, !v) :: acc) ctx.counters []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)

  (* Emit one final sample per counter so trace tracks end at the true
     totals rather than the last throttled value. *)
  let flush ctx =
    if Trace.active ctx.sink then begin
      Hashtbl.reset ctx.last_sample;
      Hashtbl.iter (fun key cell -> sample ctx key !cell) ctx.counters
    end

  let span ctx ~cat name f =
    if not (Trace.active ctx.sink) then f ()
    else begin
      let t0 = Mclock.now_ns () in
      let finish () =
        let t1 = Mclock.now_ns () in
        Trace.emit ctx.sink
          (Trace.Span
             {
               name;
               cat;
               tid = ctx.tid;
               ts_ns = Int64.sub t0 ctx.sink.Trace.epoch;
               dur_ns = Int64.sub t1 t0;
             })
      in
      match f () with
      | v ->
          finish ();
          v
      | exception e ->
          finish ();
          raise e
    end
end

type verdict = {
  outcome : Equivalence.outcome;
  peak_size : int;
  final_size : int;
  simulations : int;
  note : string;
  dd : Oqec_dd.Dd.stats option;
  certificate : Oqec_cert.Cert.t option;
}

module type CHECKER = sig
  val name : string
  val run : Ctx.t -> Flatten.prepared -> verdict
end

type checker = (module CHECKER)

let stats_of ctx ~name dd =
  Ctx.flush ctx;
  { Equivalence.engine = name; counters = Ctx.counters ctx; dd }

let timed_out_verdict =
  {
    outcome = Equivalence.Timed_out;
    peak_size = 0;
    final_size = 0;
    simulations = 0;
    note = "";
    dd = None;
    certificate = None;
  }

(* Timeout is a verdict (the checker ran out of budget); Cancelled is
   control flow (another racer already won) and must propagate so the
   race can classify the worker. *)
let run_worker ctx checker p =
  let module C = (val checker : CHECKER) in
  Ctx.set ctx Prepare_width (Flatten.width p);
  Ctx.set ctx Prepare_kept (Flatten.kept p);
  Ctx.span ctx ~cat:"engine" C.name (fun () ->
      try C.run ctx p with Equivalence.Timeout -> timed_out_verdict)

let prepare ctx g g' =
  Ctx.span ctx ~cat:"flatten" "prepare" (fun () -> Flatten.prepare g g')

let run ~ctx ~method_used checker g g' =
  let module C = (val checker : CHECKER) in
  let start = Mclock.now () in
  let verdict = run_worker ctx checker (prepare ctx g g') in
  let elapsed = Mclock.elapsed_since start in
  {
    Equivalence.outcome = verdict.outcome;
    method_used;
    elapsed;
    peak_size = verdict.peak_size;
    final_size = verdict.final_size;
    simulations = verdict.simulations;
    note = verdict.note;
    engine_stats = [ stats_of ctx ~name:C.name verdict.dd ];
    winner = None;
    jobs = 1;
    runs =
      [
        {
          Equivalence.checker = C.name;
          run_outcome = verdict.outcome;
          run_elapsed = elapsed;
          run_note = "";
        };
      ];
    certificate = verdict.certificate;
    (* Symbolic evidence is the instantiation layer's concern
       ({!Param_checker}); single-engine runs leave it unset. *)
    symbolic = None;
  }
