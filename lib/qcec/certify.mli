(** On-demand certificate construction for a conclusive verdict.

    Checkers attach certificates opportunistically (the ZX checker
    records its own rewrites; the simulation checker exports its
    refuting stimulus).  When a verdict arrives without one — a DD or
    stabilizer win, or a replayed corpus verdict — [certify] builds the
    artifact from scratch: a recorded ZX reduction of the miter for
    [Equivalent], a deterministic dense witness search for
    [Not_equivalent]. *)

open Oqec_circuit

(** [certify outcome a b] produces a certificate substantiating
    [outcome] for the circuit pair, or [Error] explaining why none
    could be built (inconclusive outcome, reduction did not reach the
    identity, no refuting stimulus found, circuits too wide). *)
val certify :
  Equivalence.outcome -> Circuit.t -> Circuit.t -> (Oqec_cert.Cert.t, string) result

(** [of_report r a b] is the certificate for report [r] on the pair:
    the one a checker attached, or else {!certify}'s.  A refutation
    found by instantiating symbolic parameters is witnessed on the pair
    instantiated at the report's refuting assignment. *)
val of_report :
  Equivalence.report -> Circuit.t -> Circuit.t -> (Oqec_cert.Cert.t, string) result
