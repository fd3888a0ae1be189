(** Absorbing SWAPs and layout metadata into permutation bookkeeping.

    Compiled circuits differ from their high-level originals by an initial
    layout, inserted SWAP gates and an output permutation (Section 3).
    [flatten] tracks the dynamic logical-to-physical assignment through
    the circuit — every SWAP becomes an update of the tracked permutation
    rather than three gate applications, exactly as in Section 4.1 — and
    returns a plain circuit without SWAPs or metadata whose unitary equals
    the circuit's effective unitary (validated against
    {!Oqec_circuit.Unitary.effective_unitary} in the test suite).

    Any residual mismatch between the tracked permutation and the
    expected output permutation is corrected with explicit SWAP gates at
    the end, as the paper describes (the only SWAPs remaining in the
    output). *)

open Oqec_circuit

(** [flatten ?reconstruct_swaps c] eliminates SWAPs and layouts.
    [reconstruct_swaps] (default [true]) first re-assembles SWAPs from
    CX triples to maximise what can be absorbed. *)
val flatten : ?reconstruct_swaps:bool -> Circuit.t -> Circuit.t

(** [align a b] widens the narrower circuit so both have equal width. *)
val align : Circuit.t -> Circuit.t -> Circuit.t * Circuit.t

(** {1 Prepared pairs}

    A check aligns and flattens its pair once, into a {!prepared}
    record that every checker (and every portfolio racer) shares.  The
    record also carries the pair {e stripped} of idle wires: wires that
    neither flattened side touches (residual output-permutation SWAPs
    count as touches) carry the identity on both sides, and
    [U (x) I = V (x) I] iff [U = V] up to global phase, so dropping them
    preserves the verdict. *)

type prepared

(** [prepare g g'] aligns and flattens the pair and finds the wires
    either flattened side touches.  The stripped pair itself is built on
    first use of {!stripped}. *)
val prepare : Circuit.t -> Circuit.t -> prepared

(** The caller's pair, as given (neither aligned nor flattened). *)
val source : prepared -> Circuit.t * Circuit.t

(** The aligned, flattened pair at full width {!width}. *)
val full : prepared -> Circuit.t * Circuit.t

(** The common width of the full pair. *)
val width : prepared -> int

(** [wires p] maps each stripped wire to its full-width wire, in
    increasing order; at least one wire is kept when {!width} is
    positive.  The array must not be mutated. *)
val wires : prepared -> int array

(** [kept p] is [Array.length (wires p)], the stripped width. *)
val kept : prepared -> int

(** The full pair relabelled onto {!wires}: width {!kept}, the same
    operations in the same order.  Built once, on first use, and safe to
    call from several domains. *)
val stripped : prepared -> Circuit.t * Circuit.t
