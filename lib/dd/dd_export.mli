(** Dense conversion and debug output for decision diagrams. *)

open Oqec_base

(** [to_dmatrix pkg e ~n] expands a matrix DD rooted at level [n-1] into
    the dense [2^n x 2^n] matrix it represents (exponential; the dense
    oracle of tests and benchmarks, and figure demos). *)
val to_dmatrix : Dd.pkg -> Dd.edge -> n:int -> Dmatrix.t

(** [to_vector pkg e ~n] expands a vector DD into its [2^n] amplitudes. *)
val to_vector : Dd.pkg -> Dd.edge -> n:int -> Cx.t array

(** [dump pkg ppf e] prints the diagram structure node by node: node
    ids, levels, edge weights and targets — the textual analogue of
    Fig. 3. *)
val dump : Dd.pkg -> Format.formatter -> Dd.edge -> unit

(** [to_dot pkg e] renders the diagram in Graphviz DOT syntax (edge
    thickness encodes magnitude, colour encodes the weight's phase,
    following the visualisation of ref. [37]). *)
val to_dot : Dd.pkg -> Dd.edge -> string
