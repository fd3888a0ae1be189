(** Recorded rewrite steps for replayable ZX verdict certificates.

    When the worklist engine ({!Zx_worklist}) runs with a [record]
    callback, every fired rewrite is reported as one of these steps:
    the rule tag, the anchor vertices and the phases it consumed.  A
    certificate is the full ordered sequence; an independent validator
    (the [oqec.cert] library) replays it step by step against
    {!Zx_graph} primitives, re-checking each step's preconditions —
    including the recorded phases, which makes silent corruption
    detectable.

    This module is pure data plus its line-oriented wire format; it
    contains no rewrite logic. *)

open Oqec_base

type t =
  | Color of int  (** colour-change an X spider to Z, toggling edge types *)
  | Fuse of { into : int; src : int; ph : Phase.t }
      (** fuse [src] (recorded phase [ph]) into [into] along a plain wire *)
  | Id of int  (** remove a phase-0 degree-2 spider, reconnecting its wires *)
  | Absorb of { leaf : int; axis : int; ph : Phase.t }
      (** absorb the Pauli state [leaf] (phase [ph]) into interior spider [axis] *)
  | Lcomp of { v : int; ph : Phase.t }  (** local complementation at [v] *)
  | Pivot of { u : int; v : int; pu : Phase.t; pv : Phase.t }
      (** pivot along the Hadamard edge u-v *)
  | Unfuse of { v : int; b : int; w : int; ty : Zx_graph.etype }
      (** split boundary wire v-[ty]-b through the fresh spider [w] *)
  | Gadgetize of { v : int; axis : int; leaf : int; ph : Phase.t }
      (** extract phase [ph] of [v] into a fresh gadget ([axis], [leaf]) *)
  | Gadget_flip of { axis : int; leaf : int }
      (** normalise a pi-phase gadget axis to 0, negating the leaf phase *)
  | Gadget_merge of { leaf : int; axis : int; leaf0 : int; axis0 : int; ph : Phase.t }
      (** merge gadget ([leaf], [axis], leaf phase [ph]) into ([leaf0], [axis0]) *)

(** One step per line: ["fuse 3 7 1/2"], ["unfuse 4 0 12 s"], ... Phases
    are ["n/d"] (n*pi/d, exact), ["~r"] (radians, %.17g) or, for a
    linear symbolic phase [c + sum (n/d) * v], ["{c;v:n/d;...}"]
    (exact). *)
val to_string : t -> string

(** Exact inverse of {!to_string}; [None] on malformed lines. *)
val of_string : string -> t option

val phase_to_string : Oqec_base.Phase.t -> string
val phase_of_string : string -> Oqec_base.Phase.t option

(** Structural equality with {!Oqec_base.Phase.equal} on phases. *)
val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
