(** Resident DD store for the checker service.

    A session owns one package, created on first use and persisting
    across requests, so a warm check finds previously interned
    gate/sub-circuit DDs still canonical in the unique table and
    memoised products still live in the compute caches.  An {e epoch}
    is one request: {!end_epoch} bumps the epoch counter and, once the
    live node count crosses the high-water mark,
    drops every root finished requests left pinned ({!Dd.clear_roots})
    and collects — bounding residency without giving up cross-request
    reuse below the mark.

    Sessions are single-owner: packages are not thread-safe, so each
    worker domain gets its own session. *)

type t

val default_high_water : int

(** [create ?tol ?gc_threshold ?high_water ()] — the tuning knobs are
    fixed for the session's lifetime (requests cannot retune a resident
    package). *)
val create : ?tol:float -> ?gc_threshold:int -> ?high_water:int -> unit -> t

(** The session's package, created on first use (so a session costs no
    arena until its first check). *)
val pkg : t -> Dd.pkg

(** Live nodes in the resident package (0 before first use). *)
val live : t -> int

(** Close the current epoch (one request): past the high-water mark,
    clear external roots and collect.  Returns nodes evicted (0 while
    under the mark). *)
val end_epoch : t -> int

val epoch : t -> int
val sweeps : t -> int
val evicted_nodes : t -> int
val high_water : t -> int

(** Counter rendering for [engine_stats] payloads:
    [server.dd.{epoch,evicted_nodes,resident_nodes,sweeps}]. *)
val counters : t -> (string * int) list
