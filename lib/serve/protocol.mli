(** Line-delimited JSON protocol of the checker service.

    {b Requests} (one JSON object per line):
    {v
    {"method":"submit", "id"?:str,
     "left":qasm | "left_file":path, "right":qasm | "right_file":path,
     "strategy"?, "timeout"?, "sim_runs"?, "seed"?,
     "dd_scheme"?, "fresh"?:bool}
    {"method":"ping"} | {"method":"stats"} | {"method":"shutdown"}
    v}

    {b Events} (one JSON object per line; [id] echoed when given):
    [accepted], [verdict], [engine_stats], [error], [pong],
    [server_stats], [bye].  The [verdict] event is deterministic
    (timing-free): its [verdict] field is {!Equivalence.verdict_line}.
    Timings and counters — including the
    [server.cache.{hit,miss,evict}] reuse counters — ride in
    [engine_stats]. *)

open Oqec_qcec

type source = Inline of string | File of string

type options = {
  strategy : Qcec.strategy;
  timeout : float option;
  sim_runs : int option;
  seed : int option;
  scheme : Dd_scheme.t option;
  fresh : bool;
      (** bypass the verdict cache on lookup (the result is still
          stored, and the resident DD store still warms) *)
}

val default_options : options

type request =
  | Submit of { id : string option; left : source; right : source; options : options }
  | Ping
  | Stats
  | Shutdown

(** [parse_request line] — [Error (code, message)] uses the protocol's
    error codes: [parse], [bad-request], [unknown-method] (the server
    adds [over-budget], [over-capacity], [deadline], [shutting-down],
    [internal]). *)
val parse_request : string -> (request, string * string) result

(** Canonical rendering of the verdict-relevant options for the cache
    key ([fresh] excluded). *)
val options_fingerprint : options -> string

(** {1 Event rendering} — each returns one line (no trailing newline). *)

val accepted : ?id:string -> job:int -> unit -> string

val verdict_event :
  ?id:string ->
  job:int ->
  outcome:Equivalence.outcome ->
  verdict:string ->
  cached:bool ->
  unit ->
  string

val engine_stats_event :
  ?id:string ->
  job:int ->
  elapsed:float ->
  engines:Equivalence.engine_stats list ->
  server:(string * int) list ->
  unit ->
  string

val error_event :
  ?id:string -> ?job:int -> code:string -> message:string -> unit -> string

val pong : string
val server_stats_event : server:(string * int) list -> unit -> string
val bye : string
