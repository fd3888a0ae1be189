(* The incremental worklist simplifier against the rescan baseline: both
   engines must stay verdict-for-verdict interchangeable (the bench's
   zx-smoke asserts the same at miter scale), plus unit tests for the
   worklist mechanics themselves (seeding, re-enqueue on neighbour
   change, batched dirtying, termination, cancellation). *)

open Oqec_base
open Oqec_circuit
open Oqec_zx
open Helpers

let seed_arb = QCheck.(make ~print:string_of_int Gen.int)

(* Random circuits on up to 6 qubits, drawing from the same gate mix as
   the fuzz generators' Mixed profile region the checkers see. *)
let random_circuit seed ~n ~len =
  let rng = Rng.make ~seed in
  let c = ref (Circuit.create n) in
  for _ = 1 to len do
    let q = Rng.int rng n in
    let q2 = (q + 1 + Rng.int rng (max 1 (n - 1))) mod n in
    match Rng.int rng 8 with
    | 0 -> c := Circuit.h !c q
    | 1 -> c := Circuit.t_gate !c q
    | 2 -> c := Circuit.s !c q
    | 3 -> c := Circuit.x !c q
    | 4 -> c := Circuit.rz !c (Phase.of_pi_fraction (Rng.int rng 16) 8) q
    | 5 | 6 -> if n > 1 then c := Circuit.cx !c q q2
    | _ -> if n > 1 then c := Circuit.cz !c q q2
  done;
  !c

let reduce_both c =
  let d_inc = Zx_circuit.of_circuit c in
  let d_res = Zx_circuit.of_circuit c in
  let ok_inc = Zx_simplify.full_reduce d_inc in
  let ok_res = Zx_simplify.Rescan.full_reduce d_res in
  ((d_inc, ok_inc), (d_res, ok_res))

(* Verdict-level agreement: completion, the extracted permutation (the
   equivalence verdict), and the number of live wires must match; both
   reduced diagrams must still denote the original circuit. *)
let prop_engines_agree =
  qtest ~count:80 "worklist: verdicts agree with the rescan engine" seed_arb
    (fun seed ->
      let n = 1 + (abs seed mod 6) in
      let c = random_circuit seed ~n ~len:10 in
      let reference = Unitary.unitary c in
      let (d_inc, ok_inc), (d_res, ok_res) = reduce_both c in
      ok_inc = ok_res
      && Zx_simplify.extract_permutation d_inc = Zx_simplify.extract_permutation d_res
      && Zx_graph.num_vertices d_inc - Zx_graph.spider_count d_inc
         = Zx_graph.num_vertices d_res - Zx_graph.spider_count d_res
      && Zx_tensor.proportional reference (Zx_tensor.matrix d_inc)
      && Zx_tensor.proportional reference (Zx_tensor.matrix d_res))

(* Self-miters must collapse to the identity permutation under both
   engines. *)
let prop_self_miter_identity =
  qtest ~count:40 "worklist: self-miter reduces to identity on both engines" seed_arb
    (fun seed ->
      let n = 2 + (abs seed mod 4) in
      let c = random_circuit seed ~n ~len:8 in
      let identity d =
        match Zx_simplify.extract_permutation d with
        | Some p -> Perm.is_identity p
        | None -> false
      in
      let d_inc = Zx_circuit.of_miter c c in
      let d_res = Zx_circuit.of_miter c c in
      ignore (Zx_simplify.full_reduce d_inc);
      ignore (Zx_simplify.Rescan.full_reduce d_res);
      identity d_inc && identity d_res)

let num_rules = List.length Zx_worklist.all_rules

(* Creation seeds every vertex into every rule queue. *)
let test_seeding () =
  let d = Zx_circuit.of_circuit (Circuit.cx (Circuit.h (Circuit.create 2) 0) 0 1) in
  let t = Zx_worklist.create d in
  Fun.protect
    ~finally:(fun () -> Zx_worklist.release t)
    (fun () ->
      Alcotest.(check int)
        "pending = vertices x rules"
        (Zx_graph.num_vertices d * num_rules)
        (Zx_worklist.pending t))

(* Draining every queue reaches pending = 0 in bounded rounds
   (termination), and a later graph mutation re-enqueues exactly the
   closed neighbourhood N[v] of the touched vertex into every queue. *)
let test_reenqueue_on_neighbour_change () =
  let d = Zx_circuit.of_circuit (Circuit.cx (Circuit.h (Circuit.create 2) 0) 0 1) in
  let t = Zx_worklist.create d in
  Fun.protect
    ~finally:(fun () -> Zx_worklist.release t)
    (fun () ->
      let rounds = ref 0 in
      while Zx_worklist.pending t > 0 && !rounds < 100 do
        incr rounds;
        List.iter (fun r -> ignore (Zx_worklist.drain t r)) Zx_worklist.all_rules
      done;
      Alcotest.(check bool) "drains terminate" true (!rounds < 100);
      Alcotest.(check int) "all queues empty" 0 (Zx_worklist.pending t);
      (* Touch one surviving spider; it and its neighbours become dirty
         for every rule. *)
      let v =
        let is_spider v =
          match Zx_graph.kind d v with
          | Zx_graph.Z | Zx_graph.X -> true
          | Zx_graph.B_in _ | Zx_graph.B_out _ -> false
        in
        match List.find_opt is_spider (Zx_graph.vertices d) with
        | Some v -> v
        | None -> List.hd (Zx_graph.vertices d)
      in
      Zx_graph.add_to_phase d v Phase.pi;
      Alcotest.(check int)
        "N[v] re-enqueued into every queue"
        ((1 + Zx_graph.degree d v) * num_rules)
        (Zx_worklist.pending t))

let drain_to_empty t =
  let rounds = ref 0 in
  while Zx_worklist.pending t > 0 && !rounds < 100 do
    incr rounds;
    List.iter (fun r -> ignore (Zx_worklist.drain t r)) Zx_worklist.all_rules
  done;
  Alcotest.(check int) "all queues empty" 0 (Zx_worklist.pending t)

(* A mutation made between drains is fired by the next drain itself, not
   only counted by [pending]: drain flushes the touched ids first. *)
let test_drain_sees_outside_mutation () =
  let d = Zx_circuit.of_circuit (Circuit.cx (Circuit.h (Circuit.create 2) 0) 0 1) in
  let t = Zx_worklist.create d in
  Fun.protect
    ~finally:(fun () -> Zx_worklist.release t)
    (fun () ->
      drain_to_empty t;
      let is_z v = Zx_graph.kind d v = Zx_graph.Z in
      let s =
        match List.find_opt is_z (Zx_graph.vertices d) with
        | Some s -> s
        | None -> Alcotest.fail "no surviving Z spider"
      in
      let w = Zx_graph.add_vertex d Zx_graph.Z ~phase:Phase.zero in
      Zx_graph.add_edge d s w Zx_graph.Simple;
      Alcotest.(check int)
        "fusion fires on the new wire" 1
        (Zx_worklist.drain t Zx_worklist.Fusion))

(* Batched dirtying enqueues exactly the post-rewrite closed
   neighbourhoods of the touched vertices.  A local complementation at a
   degree-4 centre v touches v's former neighbours (phase change, edge
   toggles, the removed v); their union of N[w], read off the final
   graph, must be what every queue holds afterwards.  A far wire that the
   rewrite does not reach must stay clean. *)
let test_lcomp_dirty_set () =
  let g = Zx_graph.create () in
  let wire q ph =
    let i = Zx_graph.add_vertex g (Zx_graph.B_in q) ~phase:Phase.zero in
    let o = Zx_graph.add_vertex g (Zx_graph.B_out q) ~phase:Phase.zero in
    let w = Zx_graph.add_vertex g Zx_graph.Z ~phase:ph in
    Zx_graph.add_edge g i w Zx_graph.Simple;
    Zx_graph.add_edge g w o Zx_graph.Simple;
    w
  in
  let ws = List.init 4 (fun q -> wire q Phase.quarter_pi) in
  ignore (wire 4 Phase.quarter_pi);
  (* The centre starts non-Clifford, so nothing matches until its phase
     is set to pi/2 below. *)
  let v = Zx_graph.add_vertex g Zx_graph.Z ~phase:Phase.quarter_pi in
  List.iter (fun w -> Zx_graph.add_edge g v w Zx_graph.Had) ws;
  Zx_graph.add_edge g (List.nth ws 0) (List.nth ws 1) Zx_graph.Had;
  let t = Zx_worklist.create g in
  Fun.protect
    ~finally:(fun () -> Zx_worklist.release t)
    (fun () ->
      drain_to_empty t;
      Alcotest.(check bool)
        "nothing fires on the inert graph" true
        (List.for_all (fun (_, n) -> n = 0) (Zx_worklist.fired t));
      Zx_graph.set_phase g v Phase.half_pi;
      List.iter
        (fun r ->
          if r <> Zx_worklist.Lcomp then
            Alcotest.(check int) "only lcomp matches" 0 (Zx_worklist.drain t r))
        Zx_worklist.all_rules;
      Alcotest.(check int)
        "lcomp fires once" 1
        (Zx_worklist.drain ~limit:1 t Zx_worklist.Lcomp);
      Alcotest.(check bool) "centre removed" false (Zx_graph.mem g v);
      let union = Hashtbl.create 16 in
      List.iter
        (fun w ->
          Hashtbl.replace union w ();
          List.iter (fun u -> Hashtbl.replace union u ()) (Zx_graph.neighbour_ids g w))
        ws;
      let size = Hashtbl.length union in
      Alcotest.(check int) "four spiders and their eight boundaries" 12 size;
      Alcotest.(check int)
        "every queue holds the union" (num_rules * size) (Zx_worklist.pending t);
      Alcotest.(check int) "no further lcomp" 0 (Zx_worklist.drain t Zx_worklist.Lcomp);
      Alcotest.(check int)
        "the other queues still hold the union"
        ((num_rules - 1) * size)
        (Zx_worklist.pending t))

(* The tracer must stop feeding the queues after release. *)
let test_release_stops_tracking () =
  let d = Zx_circuit.of_circuit (Circuit.h (Circuit.create 1) 0) in
  let t = Zx_worklist.create d in
  let rounds = ref 0 in
  while Zx_worklist.pending t > 0 && !rounds < 100 do
    incr rounds;
    List.iter (fun r -> ignore (Zx_worklist.drain t r)) Zx_worklist.all_rules
  done;
  Zx_worklist.release t;
  Zx_graph.add_to_phase d (List.hd (Zx_graph.vertices d)) Phase.pi;
  Alcotest.(check int) "no re-enqueue after release" 0 (Zx_worklist.pending t)

(* full_reduce honours should_stop at its Guard points: a stopper that
   trips after a few probes aborts the run with [false] and leaves work
   behind. *)
let test_cancellation () =
  let c = random_circuit 5 ~n:4 ~len:30 in
  let calls = ref 0 in
  let should_stop () =
    incr calls;
    !calls > 3
  in
  let d = Zx_circuit.of_miter c c in
  let completed = Zx_simplify.full_reduce ~should_stop d in
  Alcotest.(check bool) "interrupted run reports false" false completed

(* The fired census uses the same rule names as the rescan engine's
   observe callback, so the Engine.Ctx counters stay comparable. *)
let test_fired_census () =
  let c = random_circuit 7 ~n:3 ~len:12 in
  let d = Zx_circuit.of_miter c c in
  let t = Zx_worklist.create d in
  Fun.protect
    ~finally:(fun () -> Zx_worklist.release t)
    (fun () ->
      let observed = Hashtbl.create 8 in
      let observe rule count =
        Hashtbl.replace observed rule
          (count + Option.value ~default:0 (Hashtbl.find_opt observed rule))
      in
      ignore (Zx_worklist.full_reduce_t ~observe t);
      List.iter
        (fun (rule, count) ->
          Alcotest.(check int)
            (Printf.sprintf "census matches observe for %s" rule)
            (Option.value ~default:0 (Hashtbl.find_opt observed rule))
            count)
        (Zx_worklist.fired t);
      Alcotest.(check bool)
        "peak pending covers the seed"
        true
        (Zx_worklist.peak_pending t >= Zx_graph.peak_vertices d))

let suite =
  [
    prop_engines_agree;
    prop_self_miter_identity;
    Alcotest.test_case "worklist: seeding fills every queue" `Quick test_seeding;
    Alcotest.test_case "worklist: neighbour change re-enqueues N[v]" `Quick
      test_reenqueue_on_neighbour_change;
    Alcotest.test_case "worklist: drain fires a mutation made between drains" `Quick
      test_drain_sees_outside_mutation;
    Alcotest.test_case "worklist: lcomp dirties the post-rewrite N[w] union" `Quick
      test_lcomp_dirty_set;
    Alcotest.test_case "worklist: release stops tracking" `Quick
      test_release_stops_tracking;
    Alcotest.test_case "worklist: should_stop cancels full_reduce" `Quick
      test_cancellation;
    Alcotest.test_case "worklist: fired census matches observe" `Quick
      test_fired_census;
  ]
