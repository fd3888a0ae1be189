open Oqec_circuit
open Oqec_dd

(* Explicit miter state for the DD checkers: the evolving product
   D = b_j ... b_0 * inv(a_0) ... inv(a_i) plus the per-side cursors the
   application schemes steer, driven by {!Dd_checker}.

   Invariants:
   - the live edge [d] is pinned as a GC root throughout (gate
     application is the package's collection safe point; an unrooted
     miter would be invalid the moment a collection runs);
   - speculative candidates produced by [peek_*] stay rooted until the
     next commit, which either promotes one of them or discards both. *)

let fidelity_threshold = 1.0 -. 1e-9

type t = {
  ctx : Engine.Ctx.t;
  pkg : Dd.pkg;
  n : int;
  ops_left : Circuit.op array;  (* G, applied inverted from the right *)
  ops_right : Circuit.op array;  (* G', applied from the left *)
  left_cost_total : int;
  right_cost_total : int;
  mutable d : Dd.edge;
  mutable ia : int;
  mutable ib : int;
  mutable left_cost : int;
  mutable right_cost : int;
  (* Memoised speculative applications: candidate edge plus its node
     count, kept rooted until the next commit.  A [peek_left] followed
     by [apply_left] commits the cached candidate instead of
     recomputing the application. *)
  mutable spec_left : (Dd.edge * int) option;
  mutable spec_right : (Dd.edge * int) option;
  trace : (int -> unit) option;
}

(* Gate application is the package's collection safe point; it doubles
   as the engine's counting and deadline/cancellation polling point. *)
let hook_pkg ctx pkg =
  Dd.on_safe_point pkg (fun () ->
      Engine.Ctx.incr ctx Engine.Dd_gate_applied;
      Engine.Ctx.check ctx)

(* Fold the package's own accounting into the engine counters once the
   run is over (these are maintained inside the package, not observable
   per event from out here). *)
let package_counters ctx pkg =
  let st = Dd.stats pkg in
  Engine.Ctx.set ctx Engine.Dd_gc_run st.Dd.gc_runs;
  Engine.Ctx.set ctx Engine.Dd_cache_hit (Dd.cache_hits st);
  Engine.Ctx.gauge ctx "dd.arena_occupancy" st.Dd.arena.Dd.a_occupancy;
  Engine.Ctx.set ctx Engine.Dd_arena_compaction st.Dd.arena.Dd.a_compactions;
  st

(* Equivalence of unitaries is decided on the miter DD: structural
   identity up to phase, with the Hilbert-Schmidt overlap |tr D| / 2^n
   as the tolerance-aware fallback (Section 3).  The fidelity cut, not
   weight-table bucketing, is what decides near-identity miters: a
   residual rz(e) has fidelity |cos (e/2)| ~ 1 - e^2/8, so it reads as
   the identity below e ~ 9e-5. *)
let conclude_edge pkg n d =
  if Dd.is_identity ~up_to_phase:true pkg n d then Equivalence.Equivalent
  else if Dd.fidelity_to_identity pkg ~n d >= fidelity_threshold then Equivalence.Equivalent
  else Equivalence.Not_equivalent

let total_cost ops = Array.fold_left (fun acc op -> acc + Dd_scheme.op_cost op) 0 ops

(* The circuits are lowered to elementary gates first: the miter
   inverts operation by operation, and controlled rotations only
   invert exactly after decomposition (their inverse-angle form
   differs by a controlled sign, rotation angles being canonical
   modulo 2*pi).  The miter runs on the stripped pair. *)
let create ctx ?session ?trace p =
  let a, b = Flatten.stripped p in
  let a = Decompose.elementary a and b = Decompose.elementary b in
  let n = Circuit.num_qubits a in
  let pkg =
    (* A resident session supplies its own package (with the session's
       tuning knobs); fresh packages take the context's. *)
    match session with
    | Some s -> Dd_session.pkg s
    | None ->
        Dd.create ?tol:(Engine.Ctx.tol ctx)
          ?gc_threshold:(Engine.Ctx.gc_threshold ctx) ()
  in
  hook_pkg ctx pkg;
  let ops_left = Circuit.ops_array a and ops_right = Circuit.ops_array b in
  let d = Dd.identity pkg n in
  Dd.root pkg d;
  let m =
    {
      ctx;
      pkg;
      n;
      ops_left;
      ops_right;
      left_cost_total = total_cost ops_left;
      right_cost_total = total_cost ops_right;
      d;
      ia = 0;
      ib = 0;
      left_cost = 0;
      right_cost = 0;
      spec_left = None;
      spec_right = None;
      trace;
    }
  in
  (match trace with Some f -> f (Dd.node_count pkg d) | None -> ());
  m

let package m = m.pkg
let qubits m = m.n
let edge m = m.d
let left_remaining m = Array.length m.ops_left - m.ia
let right_remaining m = Array.length m.ops_right - m.ib
let exhausted m = left_remaining m = 0 && right_remaining m = 0
let live_size m = Dd.node_count m.pkg m.d

let drop_specs m =
  (match m.spec_left with Some (e, _) -> Dd.unroot m.pkg e | None -> ());
  (match m.spec_right with Some (e, _) -> Dd.unroot m.pkg e | None -> ());
  m.spec_left <- None;
  m.spec_right <- None

(* Root the incoming edge before releasing anything: [nd] may be one
   of the speculative candidates (roots are counted, so the transfer
   is a net re-pin, never a window without a root). *)
let commit m nd =
  Dd.root m.pkg nd;
  drop_specs m;
  Dd.unroot m.pkg m.d;
  m.d <- nd;
  match m.trace with Some f -> f (Dd.node_count m.pkg m.d) | None -> ()

let next_left m = Dd_circuit.apply_op_left m.pkg m.n m.d (Circuit.inverse_op m.ops_left.(m.ia))
let next_right m = Dd_circuit.apply_op m.pkg m.n m.d m.ops_right.(m.ib)

let peek_left m =
  match m.spec_left with
  | Some (_, size) -> size
  | None ->
      let e = next_left m in
      (* Pin the candidate: computing the other side's candidate (or
         anything else before the commit) may trigger a collection. *)
      Dd.root m.pkg e;
      let size = Dd.node_count m.pkg e in
      m.spec_left <- Some (e, size);
      size

let peek_right m =
  match m.spec_right with
  | Some (_, size) -> size
  | None ->
      let e = next_right m in
      Dd.root m.pkg e;
      let size = Dd.node_count m.pkg e in
      m.spec_right <- Some (e, size);
      size

let apply_left m =
  let nd = match m.spec_left with Some (e, _) -> e | None -> next_left m in
  commit m nd;
  m.left_cost <- m.left_cost + Dd_scheme.op_cost m.ops_left.(m.ia);
  m.ia <- m.ia + 1;
  Engine.Ctx.incr m.ctx Engine.Dd_left_applied

let apply_right m =
  let nd = match m.spec_right with Some (e, _) -> e | None -> next_right m in
  commit m nd;
  m.right_cost <- m.right_cost + Dd_scheme.op_cost m.ops_right.(m.ib);
  m.ib <- m.ib + 1;
  Engine.Ctx.incr m.ctx Engine.Dd_right_applied

let apply m = function
  | Dd_scheme.Left -> apply_left m
  | Dd_scheme.Right -> apply_right m

let probe m =
  {
    Dd_scheme.left_applied = m.ia;
    left_total = Array.length m.ops_left;
    right_applied = m.ib;
    right_total = Array.length m.ops_right;
    left_cost_applied = m.left_cost;
    left_cost_total = m.left_cost_total;
    right_cost_applied = m.right_cost;
    right_cost_total = m.right_cost_total;
    live_size = (fun () -> live_size m);
    peek_left = (fun () -> peek_left m);
    peek_right = (fun () -> peek_right m);
  }

let fidelity m = Dd.fidelity_to_identity m.pkg ~n:m.n m.d

(* Release every root the miter still holds.  Mandatory when the
   package came from a resident session — otherwise each request
   leaves its final miter pinned forever; harmless on fresh packages
   (they are dropped wholesale).  The miter must not be used after. *)
let release m =
  drop_specs m;
  Dd.unroot m.pkg m.d

let conclude m = conclude_edge m.pkg m.n m.d
