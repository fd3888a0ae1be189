open Oqec_base
open Zx_rules

(* Worklist-driven incremental simplification.

   Instead of re-scanning every vertex after each round of rewrites (the
   Zx_rescan baseline), the engine keeps one dirty-vertex queue per
   rewrite rule.  A graph tracer (Zx_graph.set_tracer) reports every
   mutated vertex; the engine records the touched ids and later
   re-enqueues each touched vertex and its neighbourhood into all rule
   queues.  Draining a rule's queue until it is empty is then a fixpoint
   for that rule: any rewrite fired during the drain re-dirties exactly
   the region where new matches can appear.

   Why per-rule queues: the strategies below (mirroring Zx_rescan's pass
   structure) interleave rule fixpoints — a vertex consumed by the
   fusion drain must still be examined by the later pivot drain, so a
   single shared dirty set would either lose work or force rescans.
   With one queue per rule, "queue empty" is exactly "this rule has no
   matches anywhere", provided the dirtying invariant holds:

   - every vertex is seeded into every queue at engine creation, and
   - after every mutation, the post-mutation closed neighbourhood N[v]
     of each touched vertex still live is re-enqueued, and
   - every match predicate depends only on the anchor's distance-1
     structure plus vertex kinds (which never change after the one-time
     graph-like conversion).  The pivot-family rules are anchored
     symmetrically (either endpoint of the pair can trigger the match)
     precisely so that this radius-1 invariant suffices.

   Dirtying is batched per rewrite.  The tracer only appends the touched
   id to a deduplicated buffer (one mark byte per id); {!flush} then
   enqueues N[v] of every buffered vertex that is still live, reading
   the graph as the rewrite left it.  The post-rewrite neighbourhood
   suffices: a vertex that was a neighbour of v during the rewrite but
   is not afterwards lost that edge, and losing an edge touches it, so
   it is in the buffer itself.  The enqueued live set is therefore the
   one that dirtying on every touch would produce; only the order within
   a queue differs.  The buffer is flushed after every matcher call in
   {!drain}, after every colour change in the graph-like conversion, at
   the start of every {!drain} and inside {!pending}; the last two make
   a mutation made outside a drain visible to the next drain or count.

   Cost: local complementation and pivoting toggle about d^2/2 edges
   among d neighbours, each toggle touching both endpoints.  Dirtying on
   every touch would walk the touched vertex's adjacency each time,
   O(d^3) per rewrite; the flush walks each touched vertex's adjacency
   once, O(d^2), the cost of the rewrite itself.

   The one non-local rule is gadget fusion, whose partner gadget can be
   arbitrarily far away: it is backed by a persistent support-indexed
   registry whose entries are validated (and lazily repaired) on read. *)

type rule =
  | Fusion
  | Identity
  | Pauli_leaf
  | Lcomp
  | Pivot
  | Pivot_boundary
  | Pivot_gadget
  | Gadget

let all_rules =
  [ Fusion; Identity; Pauli_leaf; Lcomp; Pivot; Pivot_boundary; Pivot_gadget; Gadget ]

let num_rules = 8

let rule_index = function
  | Fusion -> 0
  | Identity -> 1
  | Pauli_leaf -> 2
  | Lcomp -> 3
  | Pivot -> 4
  | Pivot_boundary -> 5
  | Pivot_gadget -> 6
  | Gadget -> 7

let rule_name = function
  | Fusion -> "spider-fusion"
  | Identity -> "id-removal"
  | Pauli_leaf -> "pauli-leaf"
  | Lcomp -> "local-complement"
  | Pivot -> "pivot"
  | Pivot_boundary -> "pivot-boundary"
  | Pivot_gadget -> "pivot-gadget"
  | Gadget -> "gadget-fusion"

type t = {
  g : Zx_graph.t;
  queues : int Queue.t array;
  (* Bitmask of the queues currently holding each vertex, one byte per
     vertex id (eight rules, eight bits).  A vertex sits in queue [qi]
     exactly when bit [qi] is set, so membership tests are one byte read
     instead of eight hashtable probes, and the common cascade case —
     touching an already fully-dirty vertex — is a single read.  Grown on
     demand as the graph allocates fresh ids. *)
  mutable dirty_mask : Bytes.t;
  (* Vertices touched since the last {!flush}, first touch first, and a
     per-id mark byte that keeps each id in the buffer at most once. *)
  touched : int Queue.t;
  mutable touched_mark : Bytes.t;
  (* sorted gadget support -> (leaf, axis); entries may be stale and are
     validated on read. *)
  gadget_index : (int list, int * int) Hashtbl.t;
  fired : int array;
  mutable pending_total : int;
  mutable peak_pending : int;
  mutable gh : bool;  (* the one-time graph-like conversion has run *)
  (* Certificate sink: every fired rewrite is reported here, immediately
     before the graph is mutated, so recorded phases are the pre-rewrite
     values the independent validator re-checks. *)
  record : (Zx_step.t -> unit) option;
  (* Snapshot of {!break_hook} taken at {!create}: the hook is read once
     per engine so concurrent domains racing the portfolio never observe
     a torn or mid-run flip of the sabotage switch. *)
  sabotage : string option;
}

(* Test-only sabotage switch ("identity-phase" drops the phase-0
   precondition of identity removal), used to prove that certificate
   validation catches engine bugs the engine itself cannot see. *)
let break_hook : string option Atomic.t = Atomic.make None

let full_mask = (1 lsl num_rules) - 1
let never_stop () = false
let no_observe _ _ = ()
let no_pending _ = ()

(* [bytes] grown, zero-filled, to cover id [v]. *)
let cover bytes v =
  let n = Bytes.length bytes in
  if v < n then bytes
  else begin
    let grown = Bytes.make (max (2 * n) (v + 1)) '\000' in
    Bytes.blit bytes 0 grown 0 n;
    grown
  end

let enqueue_all t v =
  t.dirty_mask <- cover t.dirty_mask v;
  let m = Char.code (Bytes.unsafe_get t.dirty_mask v) in
  if m <> full_mask then begin
    Bytes.unsafe_set t.dirty_mask v '\255';
    for qi = 0 to num_rules - 1 do
      if m land (1 lsl qi) = 0 then begin
        Queue.push v t.queues.(qi);
        t.pending_total <- t.pending_total + 1
      end
    done;
    if t.pending_total > t.peak_pending then t.peak_pending <- t.pending_total
  end

(* Tracer callback: record the touched id once; {!flush} dirties its
   neighbourhood after the rewrite. *)
let note t v =
  t.touched_mark <- cover t.touched_mark v;
  if Bytes.unsafe_get t.touched_mark v = '\000' then begin
    Bytes.unsafe_set t.touched_mark v '\001';
    Queue.push v t.touched
  end

(* Every touched vertex still live and its whole post-rewrite
   neighbourhood become dirty for every rule.  Radius 1 is enough — see
   the invariant in the header comment. *)
let flush t =
  while not (Queue.is_empty t.touched) do
    let v = Queue.pop t.touched in
    Bytes.unsafe_set t.touched_mark v '\000';
    if Zx_graph.mem t.g v then begin
      enqueue_all t v;
      Zx_graph.iter_neighbours t.g v (fun u _ -> enqueue_all t u)
    end
  done

let create ?record g =
  let t =
    {
      g;
      queues = Array.init num_rules (fun _ -> Queue.create ());
      dirty_mask = Bytes.make (max 64 (Zx_graph.num_vertices g * 2)) '\000';
      touched = Queue.create ();
      touched_mark = Bytes.make (max 64 (Zx_graph.num_vertices g * 2)) '\000';
      gadget_index = Hashtbl.create 64;
      fired = Array.make num_rules 0;
      pending_total = 0;
      peak_pending = 0;
      gh = false;
      record;
      sabotage = Atomic.get break_hook;
    }
  in
  Zx_graph.set_tracer g (Some (note t));
  List.iter (enqueue_all t) (Zx_graph.vertices g);
  t

let release t = Zx_graph.set_tracer t.g None
let graph t = t.g

let pending t =
  flush t;
  t.pending_total

let peak_pending t = t.peak_pending

let fired t =
  List.map (fun r -> (rule_name r, t.fired.(rule_index r))) all_rules

(* ------------------------------------------------------------ Matchers *)

(* Each matcher inspects one anchor vertex and fires at most one rewrite
   there, returning the number fired; the flush after the call re-dirties
   the rewritten region, bringing the anchor back if more work remains.
   Matchers take the engine (not just the graph) so each fired rewrite
   can be reported to the certificate sink before it mutates the graph. *)

let emit t step = match t.record with Some f -> f step | None -> ()

let try_fusion t v =
  let g = t.g in
  if Zx_graph.mem g v && is_spider g v then
    match
      Zx_graph.find_neighbour g v (fun u ty ->
          ty = Zx_graph.Simple && is_spider g u
          && Zx_graph.kind g u = Zx_graph.kind g v)
    with
    | Some (u, _) ->
        emit t (Zx_step.Fuse { into = v; src = u; ph = Zx_graph.phase g u });
        Zx_graph.remove_edge g v u;
        fuse g ~into:v u;
        1
    | None -> 0
  else 0

let try_identity t v =
  let g = t.g in
  if
    Zx_graph.mem g v && is_spider g v
    && (Phase.is_zero (Zx_graph.phase g v) || t.sabotage = Some "identity-phase")
    && Zx_graph.degree g v = 2
  then
    match Zx_graph.neighbours g v with
    | [ (a, ta); (b, tb) ] ->
        emit t (Zx_step.Id v);
        let combined = if ta = tb then Zx_graph.Simple else Zx_graph.Had in
        Zx_graph.remove_vertex g v;
        if is_spider g a && is_spider g b then Zx_graph.add_edge_smart g a b combined
        else Zx_graph.add_edge g a b combined;
        1
    | _ -> 0
  else 0

let try_pauli_leaf t leaf =
  let g = t.g in
  if
    Zx_graph.mem g leaf && is_z g leaf
    && Zx_graph.degree g leaf = 1
    && Phase.is_pauli (Zx_graph.phase g leaf)
  then
    match Zx_graph.neighbours g leaf with
    | [ (v, Zx_graph.Had) ]
      when is_z g v
           && Zx_graph.is_interior g v
           && Zx_graph.for_all_neighbours g v (fun _ ty -> ty = Zx_graph.Had) ->
        emit t (Zx_step.Absorb { leaf; axis = v; ph = Zx_graph.phase g leaf });
        let flip = Phase.is_pi (Zx_graph.phase g leaf) in
        let others = List.filter (fun w -> w <> leaf) (Zx_graph.neighbour_ids g v) in
        Zx_graph.remove_vertex g leaf;
        Zx_graph.remove_vertex g v;
        if flip then List.iter (fun w -> Zx_graph.add_to_phase g w Phase.pi) others;
        1
    | _ -> 0
  else 0

let try_lcomp t v =
  let g = t.g in
  if interior_z_with g v Phase.is_proper_clifford then begin
    emit t (Zx_step.Lcomp { v; ph = Zx_graph.phase g v });
    lcomp_at g v;
    1
  end
  else 0

let recorded_pivot t u v =
  emit t (Zx_step.Pivot { u; v; pu = Zx_graph.phase t.g u; pv = Zx_graph.phase t.g v });
  pivot_at t.g u v

let try_pivot t a =
  let g = t.g in
  if pivot_candidate g a Phase.is_pauli then
    match
      Zx_graph.find_neighbour g a (fun v ty ->
          ty = Zx_graph.Had && pivot_candidate g v Phase.is_pauli)
    with
    | Some (v, _) ->
        recorded_pivot t a v;
        1
    | None -> 0
  else 0

(* Boundary pivots are anchored at either endpoint: a neighbourhood
   change near the boundary spider dirties it but not necessarily its
   interior partner, so both orientations must match. *)
let apply_boundary_pivot t u v =
  let g = t.g in
  List.iter
    (fun (b, ty) ->
      if not (is_spider g b) then begin
        let w = unfuse_boundary g v b ty in
        emit t (Zx_step.Unfuse { v; b; w; ty })
      end)
    (Zx_graph.neighbours g v);
  recorded_pivot t u v

let try_pivot_boundary t a =
  let g = t.g in
  if pivot_candidate g a Phase.is_pauli then
    match
      Zx_graph.find_neighbour g a (fun v ty ->
          ty = Zx_graph.Had && boundary_pauli_z g v)
    with
    | Some (v, _) ->
        apply_boundary_pivot t a v;
        1
    | None -> 0
  else if boundary_pauli_z g a then
    match
      Zx_graph.find_neighbour g a (fun u ty ->
          ty = Zx_graph.Had && pivot_candidate g u Phase.is_pauli)
    with
    | Some (u, _) ->
        apply_boundary_pivot t u a;
        1
    | None -> 0
  else 0

let gadget_target g v =
  pivot_candidate g v (fun p -> not (Phase.is_pauli p)) && Zx_graph.degree g v >= 2

let recorded_gadgetized_pivot t u v =
  let ph = Zx_graph.phase t.g v in
  let axis, leaf = gadgetize t.g v in
  emit t (Zx_step.Gadgetize { v; axis; leaf; ph });
  recorded_pivot t u v

let try_pivot_gadget t a =
  let g = t.g in
  if pivot_candidate g a Phase.is_pauli then
    match
      Zx_graph.find_neighbour g a (fun v ty -> ty = Zx_graph.Had && gadget_target g v)
    with
    | Some (v, _) ->
        recorded_gadgetized_pivot t a v;
        1
    | None -> 0
  else if gadget_target g a then
    match
      Zx_graph.find_neighbour g a (fun u ty ->
          ty = Zx_graph.Had && pivot_candidate g u Phase.is_pauli)
    with
    | Some (u, _) ->
        recorded_gadgetized_pivot t u a;
        1
    | None -> 0
  else 0

(* Gadget fusion through the persistent support index.  A slot may hold a
   stale pair (the gadget was consumed or its support changed); staleness
   is detected by re-recognising the recorded leaf, and the slot is then
   taken over by the anchor. *)
let try_gadget t leaf =
  let g = t.g in
  match gadget_of g leaf with
  | None -> 0
  | Some (axis, support) ->
      let fires = ref 0 in
      (* Axis-phase normalisation (the old engine's gadget_cleanup): a
         pi-axis equals a 0-axis with the leaf phase negated. *)
      if Phase.is_pi (Zx_graph.phase g axis) then begin
        emit t (Zx_step.Gadget_flip { axis; leaf });
        Zx_graph.set_phase g axis Phase.zero;
        Zx_graph.set_phase g leaf (Phase.neg (Zx_graph.phase g leaf));
        incr fires
      end;
      if support <> [] && Phase.is_zero (Zx_graph.phase g axis) then begin
        let valid leaf0 axis0 =
          leaf0 <> leaf
          && Zx_graph.mem g leaf0
          &&
          match gadget_of g leaf0 with
          | Some (axis0', support') ->
              axis0' = axis0 && support' = support
              && Phase.is_zero (Zx_graph.phase g axis0')
          | None -> false
        in
        match Hashtbl.find_opt t.gadget_index support with
        | Some (leaf0, axis0) when valid leaf0 axis0 ->
            (* Merge this gadget into the recorded one. *)
            emit t
              (Zx_step.Gadget_merge
                 { leaf; axis; leaf0; axis0; ph = Zx_graph.phase g leaf });
            Zx_graph.add_to_phase g leaf0 (Zx_graph.phase g leaf);
            Zx_graph.remove_vertex g leaf;
            Zx_graph.remove_vertex g axis;
            incr fires
        | Some _ | None -> Hashtbl.replace t.gadget_index support (leaf, axis)
      end;
      !fires

(* -------------------------------------------------------------- Drains *)

exception Interrupted

(* Drain one rule's queue to empty (its per-rule fixpoint): rewrites
   fired during the drain push new candidates into the same queue and
   are processed before returning. *)
let drain ?(should_stop = never_stop) ?(observe = no_observe) ?(limit = max_int) t rule =
  let qi = rule_index rule in
  let q = t.queues.(qi) in
  let count = ref 0 in
  let try_at =
    match rule with
    | Fusion -> try_fusion t
    | Identity -> try_identity t
    | Pauli_leaf -> try_pauli_leaf t
    | Lcomp -> try_lcomp t
    | Pivot -> try_pivot t
    | Pivot_boundary -> try_pivot_boundary t
    | Pivot_gadget -> try_pivot_gadget t
    | Gadget -> try_gadget t
  in
  let bit = 1 lsl qi in
  flush t;
  (try
     while not (Queue.is_empty q) do
       if should_stop () || !count >= limit then raise Interrupted;
       let v = Queue.pop q in
       let m = Char.code (Bytes.unsafe_get t.dirty_mask v) in
       Bytes.unsafe_set t.dirty_mask v (Char.unsafe_chr (m land lnot bit));
       t.pending_total <- t.pending_total - 1;
       if Zx_graph.mem t.g v then begin
         count := !count + try_at v;
         flush t
       end
     done
   with Interrupted -> ());
  t.fired.(qi) <- t.fired.(qi) + !count;
  if !count > 0 then observe (rule_name rule) !count;
  !count

(* ----------------------------------------------------------- Strategies *)

(* The strategy layering deliberately mirrors Zx_rescan's pass structure
   (fusion/identity/Pauli absorption first, then pivoting and local
   complementation, then boundary pivots, then the gadget rounds) so the
   two engines stay verdict-for-verdict interchangeable; only the
   within-pass scheduling differs. *)

let basic_simp ?(should_stop = never_stop) ?(observe = no_observe) t =
  let total = ref 0 in
  let progress = ref true in
  while !progress && not (should_stop ()) do
    let i1 = drain ~should_stop ~observe t Identity in
    let i2 = drain ~should_stop ~observe t Fusion in
    let i3 = drain ~should_stop ~observe t Pauli_leaf in
    let round = i1 + i2 + i3 in
    total := !total + round;
    progress := round > 0
  done;
  !total

(* The graph-like conversion runs once: no rewrite reintroduces X
   spiders (fusion preserves kinds and every vertex created by a rule is
   a Z spider), so later rounds skip the whole-graph sweep the rescan
   engine repeats on every entry. *)
let to_gh_once t =
  if not t.gh then begin
    List.iter
      (fun v ->
        if Zx_graph.mem t.g v && Zx_graph.kind t.g v = Zx_graph.X then begin
          emit t (Zx_step.Color v);
          to_gh_at t.g v;
          flush t
        end)
      (Zx_graph.vertices t.g);
    t.gh <- true
  end

let interior_clifford_simp ?(should_stop = never_stop) ?(observe = no_observe) t =
  let total = ref 0 in
  total := drain ~should_stop ~observe t Fusion;
  to_gh_once t;
  total := !total + basic_simp ~should_stop ~observe t;
  let progress = ref true in
  while !progress && not (should_stop ()) do
    let i3 = drain ~should_stop ~observe t Pivot in
    let i4 = drain ~should_stop ~observe t Lcomp in
    let round = i3 + i4 + basic_simp ~should_stop ~observe t in
    total := !total + round;
    progress := round > 0
  done;
  !total

let clifford_simp ?(should_stop = never_stop) ?(observe = no_observe) t =
  let total = ref 0 in
  let progress = ref true in
  let rounds = ref 0 in
  while !progress && !rounds < 1000 && not (should_stop ()) do
    incr rounds;
    total := !total + interior_clifford_simp ~should_stop ~observe t;
    let b = drain ~should_stop ~observe ~limit:10_000 t Pivot_boundary in
    total := !total + b;
    progress := b > 0
  done;
  !total

let full_reduce_t ?(should_stop = never_stop) ?(observe = no_observe)
    ?(on_pending = no_pending) t =
  let tick () = on_pending t.pending_total in
  (* Sample the worklist length after every productive drain, not just at
     phase boundaries, so the trace gauge tracks the rewrite cascade. *)
  let observe rule count =
    observe rule count;
    tick ()
  in
  ignore (interior_clifford_simp ~should_stop ~observe t);
  tick ();
  ignore (drain ~should_stop ~observe ~limit:10_000 t Pivot_gadget);
  let continue_ = ref true in
  let rounds = ref 0 in
  while !continue_ && !rounds < 1000 && not (should_stop ()) do
    incr rounds;
    ignore (clifford_simp ~should_stop ~observe t);
    let i = drain ~should_stop ~observe t Gadget in
    ignore (interior_clifford_simp ~should_stop ~observe t);
    let j = drain ~should_stop ~observe ~limit:10_000 t Pivot_gadget in
    tick ();
    continue_ := i + j > 0
  done;
  if not (should_stop ()) then ignore (clifford_simp ~should_stop ~observe t);
  tick ();
  not (should_stop ())

let full_reduce ?should_stop ?observe ?on_pending ?record g =
  let t = create ?record g in
  Fun.protect
    ~finally:(fun () -> release t)
    (fun () -> full_reduce_t ?should_stop ?observe ?on_pending t)
