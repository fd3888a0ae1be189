open Oqec_base
open Oqec_circuit
open Oqec_qasm
open Oqec_dd
open Oqec_qcec

(* The resident checker service (the Haxe compilation-server idea
   applied to equivalence checking): a long-lived process keeps DD
   state warm across requests instead of rebuilding unique/compute
   tables per invocation.

   Three layers:
   - [process]: one submission end to end — budgets, verdict/parse
     cache, the check itself against the worker's resident
     {!Dd_session}, event emission, epoch sweep;
   - [Sync]: a deterministic single-threaded dispatcher (stdio mode,
     cram tests, bench cold/warm measurements);
   - [Pool]: worker domains behind a bounded queue with admission
     control and graceful drain, plus the Unix-socket front end with
     one lightweight thread per connection. *)

type config = {
  jobs : int;  (* worker domains of the pool *)
  max_pending : int;  (* admission control: queued jobs beyond this are rejected *)
  max_bytes : int;  (* per-side QASM byte budget *)
  max_qubits : int;  (* per-request width budget *)
  default_timeout : float option;  (* per-request deadline when the submit has none *)
  cache_capacity : int;  (* verdict/parse cache entries *)
  high_water : int;  (* resident-store epoch sweep trigger, in live nodes *)
}

let default_config =
  {
    jobs = 2;
    max_pending = 64;
    max_bytes = 8 * 1024 * 1024;
    max_qubits = 128;
    default_timeout = Some 300.0;
    cache_capacity = Server_cache.default_capacity;
    high_water = Dd_session.default_high_water;
  }

let merge_counters lists =
  List.sort (fun (a, _) (b, _) -> compare a b) (List.concat lists)

(* ------------------------------------------------------------ one job *)

let source_text cfg (src : Protocol.source) =
  let check_budget s =
    if String.length s > cfg.max_bytes then
      Error
        ( "over-budget",
          Printf.sprintf "circuit text of %d bytes exceeds the %d-byte budget"
            (String.length s) cfg.max_bytes )
    else Ok s
  in
  match src with
  | Protocol.Inline s -> check_budget s
  | Protocol.File p -> (
      match In_channel.with_open_bin p In_channel.input_all with
      | s -> check_budget s
      | exception Sys_error msg -> Error ("bad-request", msg))

(* Run one submission: every path emits either a [verdict] (plus
   [engine_stats]) or a structured [error] event — never an exception —
   and ends the resident store's epoch. *)
let process ~cfg ~cache ~(session : Dd_session.t) ~emit ~jid ~id ~left ~right
    ~(opts : Protocol.options) =
  let error code message = emit (Protocol.error_event ?id ~job:jid ~code ~message ()) in
  let server_counters () =
    merge_counters [ Server_cache.counters cache; Dd_session.counters session ]
  in
  let t0 = Mclock.now () in
  (match (source_text cfg left, source_text cfg right) with
  | Error (c, m), _ | _, Error (c, m) -> error c m
  | Ok lt, Ok rt -> (
      let key = Server_cache.key [ lt; rt; Protocol.options_fingerprint opts ] in
      match if opts.fresh then None else Server_cache.find_verdict cache key with
      | Some e ->
          emit
            (Protocol.verdict_event ?id ~job:jid ~outcome:e.Server_cache.outcome
               ~verdict:e.Server_cache.verdict ~cached:true ());
          emit
            (Protocol.engine_stats_event ?id ~job:jid ~elapsed:(Mclock.now () -. t0)
               ~engines:[] ~server:(server_counters ()) ())
      | None -> (
          match
            let g = Server_cache.circuit cache lt Qasm.circuit_of_string in
            let g' = Server_cache.circuit cache rt Qasm.circuit_of_string in
            (g, g')
          with
          | exception Qasm.Parse_error m -> error "parse" m
          | exception Failure m -> error "parse" m
          | g, g' ->
              let width = max (Circuit.num_qubits g) (Circuit.num_qubits g') in
              if width > cfg.max_qubits then
                error "over-budget"
                  (Printf.sprintf "%d qubits exceed the %d-qubit budget" width
                     cfg.max_qubits)
              else
                let timeout =
                  match opts.timeout with Some t -> Some t | None -> cfg.default_timeout
                in
                (match
                   Qcec.check ~strategy:opts.strategy ?timeout ?sim_runs:opts.sim_runs
                     ?seed:opts.seed ?scheme:opts.scheme ~session g g'
                 with
                | exception e -> error "internal" (Printexc.to_string e)
                | r -> (
                    match r.Equivalence.outcome with
                    | Equivalence.Timed_out ->
                        error "deadline"
                          (Printf.sprintf "deadline exceeded after %.3fs"
                             r.Equivalence.elapsed)
                    | outcome ->
                        let verdict = Equivalence.verdict_line r in
                        Server_cache.add_verdict cache key
                          { Server_cache.outcome; verdict };
                        emit
                          (Protocol.verdict_event ?id ~job:jid ~outcome ~verdict
                             ~cached:false ());
                        emit
                          (Protocol.engine_stats_event ?id ~job:jid
                             ~elapsed:(Mclock.now () -. t0)
                             ~engines:r.Equivalence.engine_stats
                             ~server:(server_counters ()) ()))))));
  Server_cache.note_evictions cache (Dd_session.end_epoch session)

(* ------------------------------------------------------------ sync mode *)

module Sync = struct
  type t = {
    cfg : config;
    cache : Server_cache.t;
    session : Dd_session.t;
    mutable next_jid : int;
  }

  let create ?(cfg = default_config) () =
    {
      cfg;
      cache = Server_cache.create ~capacity:cfg.cache_capacity ();
      session = Dd_session.create ~high_water:cfg.high_water ();
      next_jid = 0;
    }

  let counters t =
    merge_counters [ Server_cache.counters t.cache; Dd_session.counters t.session ]

  (* Dispatch one request line; returns the events in order plus
     whether the server should stop (shutdown).  Deterministic: the
     submit is processed inline before returning. *)
  let handle t line =
    let events = ref [] in
    let emit e = events := e :: !events in
    let stop =
      match Protocol.parse_request line with
      | Error (code, message) ->
          emit (Protocol.error_event ~code ~message ());
          false
      | Ok Protocol.Ping ->
          emit Protocol.pong;
          false
      | Ok Protocol.Stats ->
          emit (Protocol.server_stats_event ~server:(counters t) ());
          false
      | Ok Protocol.Shutdown ->
          emit Protocol.bye;
          true
      | Ok (Protocol.Submit { id; left; right; options }) ->
          let jid = t.next_jid in
          t.next_jid <- jid + 1;
          emit (Protocol.accepted ?id ~job:jid ());
          process ~cfg:t.cfg ~cache:t.cache ~session:t.session ~emit ~jid ~id ~left
            ~right ~opts:options;
          false
    in
    (List.rev !events, stop)

  let run ?cfg ic oc =
    let t = create ?cfg () in
    let rec loop () =
      match input_line ic with
      | exception End_of_file -> ()
      | "" -> loop ()
      | line ->
          let events, stop = handle t line in
          List.iter
            (fun e ->
              output_string oc e;
              output_char oc '\n')
            events;
          flush oc;
          if not stop then loop ()
    in
    loop ()
end

(* ------------------------------------------------------------ pool mode *)

module Pool = struct
  type job = {
    jid : int;
    id : string option;
    left : Protocol.source;
    right : Protocol.source;
    opts : Protocol.options;
    emit : string -> unit;
  }

  type t = {
    cfg : config;
    cache : Server_cache.t;
    q : job Queue.t;
    m : Mutex.t;
    nonempty : Condition.t;
    mutable accepting : bool;
    mutable in_flight : int;
    mutable done_ : int;
    next_jid : int Atomic.t;
    (* Worker sessions, slot-per-domain, published for stats
       aggregation (reads are unsynchronised int loads: stats may lag a
       beat, never tear). *)
    sessions : Dd_session.t option array;
    mutable workers : unit Domain.t array;
  }

  let rec worker t i (session : Dd_session.t) =
    Mutex.lock t.m;
    while Queue.is_empty t.q && t.accepting do
      Condition.wait t.nonempty t.m
    done;
    if Queue.is_empty t.q then Mutex.unlock t.m (* draining: exit *)
    else begin
      let job = Queue.pop t.q in
      t.in_flight <- t.in_flight + 1;
      Mutex.unlock t.m;
      (* [process] never raises; belt and braces so a worker can't die
         and strand the queue. *)
      (try
         process ~cfg:t.cfg ~cache:t.cache ~session ~emit:job.emit ~jid:job.jid
           ~id:job.id ~left:job.left ~right:job.right ~opts:job.opts
       with e ->
         job.emit
           (Protocol.error_event ?id:job.id ~job:job.jid ~code:"internal"
              ~message:(Printexc.to_string e) ()));
      Mutex.lock t.m;
      t.in_flight <- t.in_flight - 1;
      t.done_ <- t.done_ + 1;
      Mutex.unlock t.m;
      worker t i session
    end

  let create ?(cfg = default_config) () =
    let jobs = max 1 cfg.jobs in
    let t =
      {
        cfg;
        cache = Server_cache.create ~capacity:cfg.cache_capacity ();
        q = Queue.create ();
        m = Mutex.create ();
        nonempty = Condition.create ();
        accepting = true;
        in_flight = 0;
        done_ = 0;
        next_jid = Atomic.make 0;
        sessions = Array.make jobs None;
        workers = [||];
      }
    in
    t.workers <-
      Array.init jobs (fun i ->
          Domain.spawn (fun () ->
              let session = Dd_session.create ~high_water:cfg.high_water () in
              t.sessions.(i) <- Some session;
              worker t i session));
    t

  (* Admission-controlled enqueue.  The [accepted] event is emitted
     under the pool lock so it always precedes the job's verdict. *)
  let submit t ~emit ?id ~left ~right ~opts () =
    Mutex.lock t.m;
    if not t.accepting then begin
      Mutex.unlock t.m;
      emit
        (Protocol.error_event ?id ~code:"shutting-down"
           ~message:"server is draining; submit rejected" ())
    end
    else if Queue.length t.q >= t.cfg.max_pending then begin
      Mutex.unlock t.m;
      emit
        (Protocol.error_event ?id ~code:"over-capacity"
           ~message:
             (Printf.sprintf "pending queue full (%d jobs)" t.cfg.max_pending)
           ())
    end
    else begin
      let jid = Atomic.fetch_and_add t.next_jid 1 in
      emit (Protocol.accepted ?id ~job:jid ());
      Queue.push { jid; id; left; right; opts; emit } t.q;
      Condition.signal t.nonempty;
      Mutex.unlock t.m
    end

  let counters t =
    Mutex.lock t.m;
    let pending = Queue.length t.q and in_flight = t.in_flight and done_ = t.done_ in
    Mutex.unlock t.m;
    let sessions =
      Array.to_list t.sessions
      |> List.filter_map (Option.map Dd_session.counters)
      |> List.concat
    in
    let summed =
      List.fold_left
        (fun acc (k, v) ->
          match List.assoc_opt k acc with
          | Some v0 -> (k, v0 + v) :: List.remove_assoc k acc
          | None -> (k, v) :: acc)
        [] sessions
    in
    merge_counters
      [
        Server_cache.counters t.cache;
        summed;
        [
          ("server.jobs.done", done_);
          ("server.jobs.in_flight", in_flight);
          ("server.jobs.pending", pending);
          ("server.jobs.workers", Array.length t.workers);
        ];
      ]

  (* Graceful drain: stop admission, wake every worker, join them once
     the queue runs dry.  Queued and in-flight jobs all complete. *)
  let drain t =
    Mutex.lock t.m;
    t.accepting <- false;
    Condition.broadcast t.nonempty;
    Mutex.unlock t.m;
    Array.iter Domain.join t.workers
end

(* ------------------------------------------------------------ socket mode *)

(* One lightweight thread per connection reads requests; verdicts are
   pushed to the submitting connection by whichever worker domain runs
   the job (per-connection write mutex; writes to a connection the
   client already closed are dropped). The accept loop polls a stop
   flag so a [shutdown] request from any connection ends the server:
   admission closes, the pool drains, connection threads are joined and
   the socket path is unlinked before returning. *)
let run_socket ?(cfg = default_config) ~path () =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let pool = Pool.create ~cfg () in
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind sock (Unix.ADDR_UNIX path);
  Unix.listen sock 16;
  let stop = Atomic.make false in
  let threads = ref [] in
  let tm = Mutex.create () in
  let handle_conn fd =
    let ic = Unix.in_channel_of_descr fd in
    let oc = Unix.out_channel_of_descr fd in
    let wm = Mutex.create () in
    let emit line =
      Mutex.lock wm;
      (try
         output_string oc line;
         output_char oc '\n';
         flush oc
       with Sys_error _ | Unix.Unix_error _ -> ());
      Mutex.unlock wm
    in
    let rec loop () =
      match input_line ic with
      | exception (End_of_file | Sys_error _) -> ()
      | "" -> loop ()
      | line -> (
          match Protocol.parse_request line with
          | Error (code, message) ->
              emit (Protocol.error_event ~code ~message ());
              loop ()
          | Ok Protocol.Ping ->
              emit Protocol.pong;
              loop ()
          | Ok Protocol.Stats ->
              emit (Protocol.server_stats_event ~server:(Pool.counters pool) ());
              loop ()
          | Ok Protocol.Shutdown ->
              Atomic.set stop true;
              emit Protocol.bye
              (* stop reading; the accept loop notices the flag *)
          | Ok (Protocol.Submit { id; left; right; options }) ->
              Pool.submit pool ~emit ?id ~left ~right ~opts:options ();
              loop ())
    in
    loop ();
    Mutex.lock wm;
    (try close_out_noerr oc with _ -> ());
    Mutex.unlock wm
  in
  let rec accept_loop () =
    if not (Atomic.get stop) then begin
      (match Unix.select [ sock ] [] [] 0.2 with
      | [], _, _ -> ()
      | _ :: _, _, _ -> (
          match Unix.accept sock with
          | fd, _ ->
              let th = Thread.create handle_conn fd in
              Mutex.lock tm;
              threads := th :: !threads;
              Mutex.unlock tm
          | exception Unix.Unix_error _ -> ())
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      accept_loop ()
    end
  in
  accept_loop ();
  Pool.drain pool;
  Mutex.lock tm;
  let ths = !threads in
  Mutex.unlock tm;
  List.iter Thread.join ths;
  (try Unix.close sock with Unix.Unix_error _ -> ());
  (try Unix.unlink path with Unix.Unix_error _ -> ())
