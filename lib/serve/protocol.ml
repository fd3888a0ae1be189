open Oqec_base
open Oqec_qcec

(* Line-delimited JSON protocol of the checker service.

   Requests (one object per line):
     {"method":"submit", "id"?:str,
      "left":qasm | "left_file":path, "right":qasm | "right_file":path,
      "strategy"?:str, "timeout"?:sec, "sim_runs"?:int, "seed"?:int,
      "dd_scheme"?:str, "fresh"?:bool}
     {"method":"ping"} | {"method":"stats"} | {"method":"shutdown"}

   Events (one object per line, [id] echoed when the submit carried one):
     {"event":"accepted","job":int,"id"?}
     {"event":"verdict","job":int,"id"?,"outcome":str,"verdict":str,
      "cached":bool}                      — deterministic, no timings
     {"event":"engine_stats","job":int,"id"?,"elapsed":sec,
      "engines":[{"engine":str,"counters":{...}}],"server":{...}}
     {"event":"error","code":str,"message":str,"job"?,"id"?}
     {"event":"pong"} | {"event":"server_stats","server":{...}}
     {"event":"bye"}

   The [verdict] event is intentionally timing-free: its [verdict]
   field is {!Equivalence.verdict_line}, so a service verdict can be
   byte-compared against a one-shot [check --verdict-only] run.
   Timings and counters ride in the separate [engine_stats] event. *)

type source = Inline of string | File of string

type options = {
  strategy : Qcec.strategy;
  timeout : float option;
  sim_runs : int option;
  seed : int option;
  scheme : Dd_scheme.t option;
  fresh : bool;  (** bypass the verdict cache (still warms the DD store) *)
}

let default_options =
  {
    strategy = Qcec.Combined;
    timeout = None;
    sim_runs = None;
    seed = None;
    scheme = None;
    fresh = false;
  }

type request =
  | Submit of { id : string option; left : source; right : source; options : options }
  | Ping
  | Stats
  | Shutdown

(* Error codes, also used by the server for conditions detected after
   parsing:
     parse           malformed JSON line or circuit text
     bad-request     well-formed JSON with an invalid shape or value
     unknown-method  unrecognised "method"
     over-budget     circuit beyond the memory budget
     over-capacity   admission control: pending queue full
     deadline        per-request deadline exceeded
     shutting-down   submit after shutdown started
     internal        unexpected checker failure *)

let ( let* ) = Result.bind

let bad msg = Error ("bad-request", msg)

let field_str j k =
  match Jsonv.member j k with
  | None -> Ok None
  | Some v -> (
      match Jsonv.to_str v with
      | Some s -> Ok (Some s)
      | None -> bad (Printf.sprintf "field %S must be a string" k))

let field_num j k =
  match Jsonv.member j k with
  | None -> Ok None
  | Some v -> (
      match Jsonv.to_num v with
      | Some f -> Ok (Some f)
      | None -> bad (Printf.sprintf "field %S must be a number" k))

let field_bool j k =
  match Jsonv.member j k with
  | None -> Ok None
  | Some v -> (
      match Jsonv.to_bool v with
      | Some b -> Ok (Some b)
      | None -> bad (Printf.sprintf "field %S must be a boolean" k))

let parse_source j inline_key file_key =
  let* inline = field_str j inline_key in
  let* file = field_str j file_key in
  match (inline, file) with
  | Some s, None -> Ok (Inline s)
  | None, Some p -> Ok (File p)
  | Some _, Some _ ->
      bad (Printf.sprintf "give %S or %S, not both" inline_key file_key)
  | None, None -> bad (Printf.sprintf "missing %S or %S" inline_key file_key)

let parse_options j =
  let* strategy =
    let* s = field_str j "strategy" in
    match s with
    | None -> Ok default_options.strategy
    | Some s -> (
        match Qcec.strategy_of_string s with
        | Some st -> Ok st
        | None -> bad ("unknown strategy " ^ s))
  in
  let* timeout = field_num j "timeout" in
  let* sim_runs = field_num j "sim_runs" in
  let* seed = field_num j "seed" in
  let* scheme =
    let* s = field_str j "dd_scheme" in
    match s with
    | None -> Ok None
    | Some s -> (
        match Dd_scheme.of_string s with
        | Some sch -> Ok (Some sch)
        | None -> bad ("unknown dd_scheme " ^ s))
  in
  let* fresh = field_bool j "fresh" in
  Ok
    {
      strategy;
      timeout;
      sim_runs = Option.map int_of_float sim_runs;
      seed = Option.map int_of_float seed;
      scheme;
      fresh = Option.value fresh ~default:false;
    }

let parse_request line =
  match Jsonv.parse line with
  | exception Jsonv.Bad msg -> Error ("parse", msg)
  | Jsonv.Obj _ as j -> (
      let* m =
        match Jsonv.member j "method" with
        | Some (Jsonv.Str m) -> Ok m
        | Some _ -> bad "field \"method\" must be a string"
        | None -> bad "missing field \"method\""
      in
      match m with
      | "ping" -> Ok Ping
      | "stats" -> Ok Stats
      | "shutdown" -> Ok Shutdown
      | "submit" ->
          let* id = field_str j "id" in
          let* left = parse_source j "left" "left_file" in
          let* right = parse_source j "right" "right_file" in
          let* options = parse_options j in
          Ok (Submit { id; left; right; options })
      | m -> Error ("unknown-method", "unknown method " ^ m))
  | _ -> Error ("parse", "request is not a JSON object")

(* The part of the options that can influence a verdict, rendered
   canonically for the verdict-cache key ([fresh] excluded: it only
   steers cache lookup). *)
let options_fingerprint o =
  Printf.sprintf "strategy=%s;timeout=%s;sim_runs=%d;seed=%d;scheme=%s"
    (Qcec.strategy_to_string o.strategy)
    (match o.timeout with Some t -> Printf.sprintf "%g" t | None -> "none")
    (Option.value o.sim_runs ~default:16)
    (Option.value o.seed ~default:1)
    (match o.scheme with Some s -> Dd_scheme.to_string s | None -> "default")

(* ------------------------------------------------------------ events *)

let opt_id id = match id with None -> [] | Some i -> [ ("id", Jsonv.Str i) ]

let event name fields = Jsonv.to_string (Jsonv.Obj (("event", Jsonv.Str name) :: fields))

let accepted ?id ~job () = event "accepted" (("job", Jsonv.Num (float_of_int job)) :: opt_id id)

let verdict_event ?id ~job ~outcome ~verdict ~cached () =
  event "verdict"
    ([
       ("job", Jsonv.Num (float_of_int job));
       ("outcome", Jsonv.Str (Equivalence.outcome_to_string outcome));
       ("verdict", Jsonv.Str verdict);
       ("cached", Jsonv.Bool cached);
     ]
    @ opt_id id)

let counters_obj counters =
  Jsonv.Obj (List.map (fun (k, v) -> (k, Jsonv.Num (float_of_int v))) counters)

let engine_stats_event ?id ~job ~elapsed ~engines ~server () =
  event "engine_stats"
    ([
       ("job", Jsonv.Num (float_of_int job));
       ("elapsed", Jsonv.Num elapsed);
       ( "engines",
         Jsonv.Arr
           (List.map
              (fun (e : Equivalence.engine_stats) ->
                Jsonv.Obj
                  [
                    ("engine", Jsonv.Str e.Equivalence.engine);
                    ("counters", counters_obj e.Equivalence.counters);
                  ])
              engines) );
       ("server", counters_obj server);
     ]
    @ opt_id id)

let error_event ?id ?job ~code ~message () =
  event "error"
    ([ ("code", Jsonv.Str code); ("message", Jsonv.Str message) ]
    @ (match job with None -> [] | Some j -> [ ("job", Jsonv.Num (float_of_int j)) ])
    @ opt_id id)

let pong = event "pong" []
let server_stats_event ~server () = event "server_stats" [ ("server", counters_obj server) ]
let bye = event "bye" []
