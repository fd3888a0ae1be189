open Oqec_base
open Oqec_circuit
open Oqec_zx
open Oqec_cert

(* Certificates carry the full-width pair, never the stripped one. *)
let certify outcome g g' =
  let full () = Flatten.full (Flatten.prepare g g') in
  match outcome with
  | Equivalence.Equivalent -> (
      let a, b = full () in
      let steps = ref [] in
      let diagram = Zx_circuit.of_miter a b in
      let completed =
        Zx_simplify.full_reduce ~record:(fun s -> steps := s :: !steps) diagram
      in
      if not completed then Error "zx reduction was interrupted"
      else
        match Zx_simplify.extract_permutation diagram with
        | Some p when Perm.is_identity p ->
            Ok (Cert.Zx_proof { a; b; steps = List.rev !steps })
        | Some _ | None ->
            Error "zx reduction did not reach the identity; cannot certify equivalence"
      )
  | Equivalence.Not_equivalent -> (
      let a, b = full () in
      match Cert.find_witness a b with
      | Some (index, prep, fidelity) ->
          Ok (Cert.Witness { a; b; index; prep; fidelity })
      | None ->
          Error
            "no refuting stimulus found (circuits too wide for dense search, or \
             fidelity too close to 1)")
  | Equivalence.No_information | Equivalence.Timed_out ->
      Error "inconclusive outcomes cannot be certified"

(* An instantiated refutation holds for one assignment only: the
   witness search runs on the circuits instantiated at the report's
   refuting assignment, and the witness carries that concrete pair. *)
let of_report (r : Equivalence.report) g g' =
  match r.Equivalence.certificate with
  | Some c -> Ok c
  | None -> (
      match r.Equivalence.symbolic with
      | Some (Equivalence.Instantiated { refuting = Some asg; _ }) ->
          certify r.Equivalence.outcome (Circuit.instantiate asg g)
            (Circuit.instantiate asg g')
      | Some _ | None -> certify r.Equivalence.outcome g g')
