(** Worklist-driven incremental ZX simplification.

    The engine keeps one dirty-vertex queue per rewrite rule, fed by a
    {!Zx_graph.set_tracer} subscription: when a rewrite fires, only the
    touched vertices and their neighbourhoods are re-enqueued (batched
    once per rewrite, after it completes), replacing
    the global re-scan fixpoint loops of {!Zx_rescan}.  Draining a
    rule's queue to empty is that rule's fixpoint; the composite
    strategies mirror the rescan engine's pass layering so both engines
    stay verdict-for-verdict interchangeable (asserted by the property
    suite and the bench's [zx-smoke] agreement corpus).

    See DESIGN.md, "Incremental ZX rewriting", for the dirtying
    invariant and why the queues are per-rule. *)


type rule =
  | Fusion  (** ["spider-fusion"] *)
  | Identity  (** ["id-removal"] *)
  | Pauli_leaf  (** ["pauli-leaf"] *)
  | Lcomp  (** ["local-complement"] *)
  | Pivot  (** ["pivot"] *)
  | Pivot_boundary  (** ["pivot-boundary"] *)
  | Pivot_gadget  (** ["pivot-gadget"] *)
  | Gadget  (** ["gadget-fusion"] *)

val all_rules : rule list

(** The rule's counter name, identical to the rescan engine's observe
    keys. *)
val rule_name : rule -> string

(** An engine instance bound to one graph.  Creation installs the
    mutation tracer and seeds every vertex into every rule queue;
    {!release} uninstalls the tracer (mutations stop being tracked). *)
type t

(** [create ?record g] builds an engine on [g].  When [record] is given
    it receives every fired rewrite as a {!Zx_step.t}, emitted
    immediately before the graph mutation — the recording hook of the
    verdict-certificate subsystem ([oqec.cert]). *)
val create : ?record:(Zx_step.t -> unit) -> Zx_graph.t -> t

(** Test-only sabotage switch: setting it to [Some "identity-phase"]
    drops the phase-0 precondition of identity removal, making the
    engine unsound on purpose.  Used (via [OQEC_CERT_BREAK]) to
    demonstrate that certificate validation catches engine bugs the
    engine itself cannot detect.  Read once per engine at {!create} (so
    portfolio domains never race a mid-run flip).  Always [None] in
    production. *)
val break_hook : string option Atomic.t
val release : t -> unit
val graph : t -> Zx_graph.t

(** Total number of queued (vertex, rule) entries — the live worklist
    length reported to the engine's trace gauge.  Vertices touched by a
    mutation made since the last drain are enqueued first, so they are
    counted. *)
val pending : t -> int

(** Running maximum of {!pending} over the engine's lifetime. *)
val peak_pending : t -> int

(** Per-rule rewrite counts fired so far, as [(rule-name, count)]. *)
val fired : t -> (string * int) list

(** [drain t rule] pops the rule's queue until empty (or [should_stop] /
    [limit]), firing the rule at each live anchor; returns the number of
    rewrites.  Vertices touched since the last drain are enqueued first.
    Rewrites fired during the drain re-enqueue their dirty neighbourhood
    and are processed before returning. *)
val drain :
  ?should_stop:(unit -> bool) ->
  ?observe:(string -> int -> unit) ->
  ?limit:int ->
  t ->
  rule ->
  int

(** Fusion, identity removal and Pauli absorption to joint fixpoint. *)
val basic_simp :
  ?should_stop:(unit -> bool) -> ?observe:(string -> int -> unit) -> t -> int

val interior_clifford_simp :
  ?should_stop:(unit -> bool) -> ?observe:(string -> int -> unit) -> t -> int

val clifford_simp :
  ?should_stop:(unit -> bool) -> ?observe:(string -> int -> unit) -> t -> int

(** Incremental [full_reduce] on an existing engine instance.
    [on_pending] is called with the current worklist length at phase
    boundaries (wired to the ["zx.worklist"] trace gauge by the
    checker).  Returns [false] when interrupted by [should_stop]. *)
val full_reduce_t :
  ?should_stop:(unit -> bool) ->
  ?observe:(string -> int -> unit) ->
  ?on_pending:(int -> unit) ->
  t ->
  bool

(** Convenience wrapper: create an engine on [g], run {!full_reduce_t},
    release the tracer (even on exceptions).  [record] is forwarded to
    {!create}. *)
val full_reduce :
  ?should_stop:(unit -> bool) ->
  ?observe:(string -> int -> unit) ->
  ?on_pending:(int -> unit) ->
  ?record:(Zx_step.t -> unit) ->
  Zx_graph.t ->
  bool
