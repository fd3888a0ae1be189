(** Dense-id complex-weight interning for the DD package.

    The package relies on shared sub-diagrams, and two sub-matrices can
    only be shared if their edge weights compare equal.  Weights are
    therefore canonicalised per real component (tolerance bucketing:
    any value within [tol] of a stored representative snaps onto it;
    [-0.] is folded onto [+0.]; non-finite components and magnitudes
    beyond the bucket range pass through uninterned) and then assigned
    small dense ids keyed by the canonical IEEE bit patterns, so that a
    whole edge — node id plus weight id — packs into one immediate
    integer.  Section 6.2 of the paper discusses how circuits with very
    small rotation angles defeat this mechanism.  Ids {!zero_id} and
    {!one_id} are pinned at creation. *)

open Oqec_base

type t

val create : ?tol:float -> unit -> t

val tolerance : t -> float

(** Number of distinct weight ids assigned so far. *)
val size : t -> int

val zero_id : int
val one_id : int

(** [intern t z] is the dense id of [z]'s canonical representative,
    allocating a fresh id on first sight. *)
val intern : t -> Cx.t -> int

val get : t -> int -> Cx.t
val re : t -> int -> float
val im : t -> int -> float
