(* Tests for the QMDD package, validated against dense matrices.  Edges
   held across [Dd_circuit] calls below stay valid without roots only
   because the default collection threshold is never reached here. *)

open Oqec_base
open Oqec_circuit
open Oqec_dd
open Oqec_qcec
open Helpers

let ghz3 =
  let c = Circuit.create ~name:"ghz3" 3 in
  let c = Circuit.h c 0 in
  let c = Circuit.cx c 0 1 in
  Circuit.cx c 0 2

(* The complex weight table: tolerance snapping per component. *)
let test_wtable_interning () =
  let t = Wtable.create ~tol:1e-10 () in
  let a = Wtable.intern t (Cx.make 0.5 0.0) in
  let b = Wtable.intern t (Cx.make (0.5 +. 1e-12) 0.0) in
  Alcotest.(check int) "snapped" a b;
  Alcotest.(check (float 0.0)) "first value is the representative" 0.5 (Wtable.re t b);
  let c = Wtable.intern t (Cx.make 0.5001 0.0) in
  Alcotest.(check bool) "distinct" true (a <> c);
  let z = Wtable.intern t (Cx.make (-0.0) 0.0) in
  Alcotest.(check bool) "negative zero normalised" true (1.0 /. Wtable.re t z = infinity)

(* Regression: NaN/inf and huge magnitudes used to hit int_of_float
   undefined behaviour in the bucket computation, producing garbage keys
   that could alias unrelated values.  They must now pass through
   unsnapped and leave the table intact. *)
let test_wtable_nonfinite () =
  let t = Wtable.create ~tol:1e-10 () in
  let inf = Wtable.get t (Wtable.intern t (Cx.make infinity neg_infinity)) in
  Alcotest.(check bool) "inf passes through" true (inf.Cx.re = infinity);
  Alcotest.(check bool) "neg inf passes through" true (inf.Cx.im = neg_infinity);
  let n = Wtable.get t (Wtable.intern t (Cx.make nan 0.0)) in
  Alcotest.(check bool) "nan passes through" true (Float.is_nan n.Cx.re);
  let huge = Wtable.get t (Wtable.intern t (Cx.make 1e300 (-1e300))) in
  Alcotest.(check bool) "huge passes through" true (huge.Cx.re = 1e300);
  Alcotest.(check bool) "huge negative passes through" true (huge.Cx.im = -1e300);
  (* The table still interns ordinary values correctly afterwards. *)
  let a = Wtable.intern t (Cx.make 0.5 0.0) in
  let b = Wtable.intern t (Cx.make (0.5 +. 1e-12) 0.0) in
  Alcotest.(check int) "normal interning unaffected" a b

let test_identity_dd () =
  let pkg = Dd.create () in
  let id = Dd.identity pkg 5 in
  Alcotest.(check int) "linear size" 5 (Dd.node_count pkg id);
  Alcotest.(check bool) "is identity" true (Dd.is_identity pkg 5 id);
  check_matrix "dense" (Dmatrix.identity 32) (Dd_export.to_dmatrix pkg id ~n:5);
  Alcotest.(check (float 1e-9)) "trace" 32.0 (Cx.mag (Dd.trace pkg id));
  Alcotest.(check (float 1e-9)) "fidelity" 1.0 (Dd.fidelity_to_identity pkg ~n:5 id)

let test_hash_consing () =
  let pkg = Dd.create () in
  let a = Dd.identity pkg 3 in
  let b = Dd.identity pkg 3 in
  Alcotest.(check int) "same node" (Dd.node_id a) (Dd.node_id b);
  (* Rebuilding the chain by hand hash-conses onto the same nodes. *)
  let c =
    List.fold_left
      (fun acc v -> Dd.make_node pkg v [| acc; Dd.zero_edge; Dd.zero_edge; acc |])
      Dd.one_edge [ 0; 1; 2 ]
  in
  Alcotest.(check int) "hand-built chain shares" (Dd.node_id a) (Dd.node_id c)

let test_gate_dd_dense () =
  let pkg = Dd.create () in
  let check name n controls target g =
    let dd = Dd_circuit.gate_dd pkg n ~controls ~target (Gate.matrix g) in
    let c = Circuit.create n in
    let c =
      if controls = [] then Circuit.gate c g target
      else Circuit.add c (Circuit.Ctrl (controls, g, target))
    in
    check_matrix name (Unitary.unitary c) (Dd_export.to_dmatrix pkg dd ~n)
  in
  check "h on 1 of 3" 3 [] 1 Gate.H;
  check "t on 0 of 2" 2 [] 0 Gate.T;
  check "cx 0->1" 2 [ 0 ] 1 Gate.X;
  check "cx 1->0" 2 [ 1 ] 0 Gate.X;
  check "cx 2->0 of 3" 3 [ 2 ] 0 Gate.X;
  check "ccx" 3 [ 0; 1 ] 2 Gate.X;
  check "ccx mixed order" 3 [ 2; 0 ] 1 Gate.X;
  check "cccz" 4 [ 0; 1; 3 ] 2 Gate.Z;
  check "controlled rz" 3 [ 1 ] 2 (Gate.Rz Phase.quarter_pi)

let test_ghz_dd () =
  let pkg = Dd.create () in
  let dd = Dd_circuit.of_circuit pkg ghz3 in
  check_matrix "ghz matrix" (Unitary.unitary ghz3) (Dd_export.to_dmatrix pkg dd ~n:3);
  (* Fig. 3a: the GHZ DD is compact — 5 nodes (1 + 2 + 2 across the three
     levels) instead of the 64 entries of the dense matrix. *)
  Alcotest.(check int) "compact" 5 (Dd.node_count pkg dd)

let test_mul_add_adjoint_dense () =
  let pkg = Dd.create () in
  let c1 = Circuit.cx (Circuit.h (Circuit.create 2) 0) 0 1 in
  let c2 = Circuit.t_gate (Circuit.cx (Circuit.create 2) 1 0) 0 in
  let d1 = Dd_circuit.of_circuit pkg c1 and d2 = Dd_circuit.of_circuit pkg c2 in
  let m1 = Unitary.unitary c1 and m2 = Unitary.unitary c2 in
  let dense e = Dd_export.to_dmatrix pkg e ~n:2 in
  check_matrix "mul" (Dmatrix.mul m1 m2) (dense (Dd.mul pkg d1 d2));
  check_matrix "add" (Dmatrix.add m1 m2) (dense (Dd.add pkg d1 d2));
  check_matrix "adjoint" (Dmatrix.adjoint m1) (dense (Dd.adjoint pkg d1))

let test_gdg_g_is_identity () =
  let pkg = Dd.create () in
  let c = ghz3 in
  let miter = Circuit.append c (Circuit.inverse c) in
  let dd = Dd_circuit.of_circuit pkg miter in
  Alcotest.(check bool) "identity" true (Dd.is_identity pkg 3 dd);
  Alcotest.(check (float 1e-9)) "fidelity 1" 1.0 (Dd.fidelity_to_identity pkg ~n:3 dd)

let test_simulation () =
  let pkg = Dd.create () in
  let v = Dd_circuit.simulate pkg ghz3 ~input:0 in
  let dense = Dd_export.to_vector pkg v ~n:3 in
  let expect = Unitary.basis_state 3 0 in
  Unitary.apply_to_vector ghz3 expect;
  Array.iteri
    (fun i amp -> Alcotest.check cx_testable (Printf.sprintf "amp %d" i) expect.(i) amp)
    dense

let test_inner_product () =
  let pkg = Dd.create () in
  let v0 = Dd_circuit.simulate pkg ghz3 ~input:0 in
  Alcotest.(check (float 1e-9)) "normalised" 1.0 (Cx.mag (Dd.inner pkg v0 v0));
  let v1 = Dd_circuit.simulate pkg ghz3 ~input:1 in
  Alcotest.(check (float 1e-9)) "orthogonal" 0.0 (Cx.mag (Dd.inner pkg v0 v1));
  let k3 = Dd.kets pkg 3 3 in
  let k3' = Dd.kets pkg 3 3 in
  Alcotest.(check (float 1e-9)) "kets self" 1.0 (Cx.mag (Dd.inner pkg k3 k3'))

let test_kets () =
  let pkg = Dd.create () in
  let v = Dd_export.to_vector pkg (Dd.kets pkg 3 5) ~n:3 in
  Alcotest.check cx_testable "amp 5" Cx.one v.(5);
  Alcotest.check cx_testable "amp 0" Cx.zero v.(0)

(* Canonicity: the same unitary built along different op orders must be
   physically the same node. *)
let test_canonicity () =
  let pkg = Dd.create () in
  let c1 = Circuit.cx (Circuit.h (Circuit.create 2) 0) 0 1 in
  (* Same unitary: H = S . Sx . S up to phase?  Use a simpler identity:
     build c1 as one product vs the product of two halves. *)
  let d_whole = Dd_circuit.of_circuit pkg c1 in
  let h_dd = Dd_circuit.of_circuit pkg (Circuit.h (Circuit.create 2) 0) in
  let cx_dd = Dd_circuit.of_circuit pkg (Circuit.cx (Circuit.create 2) 0 1) in
  let d_split = Dd.mul pkg cx_dd h_dd in
  Alcotest.(check int) "same node" (Dd.node_id d_whole) (Dd.node_id d_split);
  Alcotest.check cx_testable "same weight" (Dd.weight pkg d_whole) (Dd.weight pkg d_split)

(* ------------------------------------------ Engine statistics and GC *)

let test_identity_memoised () =
  let pkg = Dd.create () in
  (* Garbage allocated first sits below the chain, so the collection
     below has holes to slide the chain into. *)
  for i = 0 to 7 do
    ignore (Dd.kets pkg 4 i)
  done;
  let a = Dd.identity pkg 6 in
  let b = Dd.identity pkg 6 in
  Alcotest.(check int) "same chain" (Dd.node_id a) (Dd.node_id b);
  (* The memoised identity acts as a GC root: it survives a collection
     with no registered roots (possibly moved) and stays canonical. *)
  Alcotest.(check bool) "garbage reclaimed" true (Dd.gc pkg > 0);
  let c = Dd.identity pkg 6 in
  Alcotest.(check int) "chain intact" 6 (Dd.node_count pkg c);
  check_matrix "still the identity" (Dmatrix.identity 64) (Dd_export.to_dmatrix pkg c ~n:6);
  let rebuilt =
    List.fold_left
      (fun acc v -> Dd.make_node pkg v [| acc; Dd.zero_edge; Dd.zero_edge; acc |])
      Dd.one_edge [ 0; 1; 2; 3; 4; 5 ]
  in
  Alcotest.(check int) "still canonical" (Dd.node_id c) (Dd.node_id rebuilt)

let test_stats_hits () =
  let pkg = Dd.create () in
  let d1 = Dd_circuit.of_circuit pkg ghz3 in
  let d2 = Dd_circuit.of_circuit pkg (Circuit.inverse ghz3) in
  let before = (Dd.stats pkg).Dd.mm.Dd.s_hits in
  ignore (Dd.mul pkg d1 d2);
  let after_once = (Dd.stats pkg).Dd.mm.Dd.s_hits in
  ignore (Dd.mul pkg d1 d2);
  let after_twice = (Dd.stats pkg).Dd.mm.Dd.s_hits in
  Alcotest.(check bool) "repeat mul hits the cache" true (after_twice > after_once);
  ignore before;
  let s = Dd.stats pkg in
  Alcotest.(check bool) "total hits positive" true (Dd.cache_hits s > 0);
  Alcotest.(check bool) "allocated covers live" true (s.Dd.allocated >= s.Dd.live);
  Alcotest.(check bool) "peak covers live" true (s.Dd.peak_live >= s.Dd.live)

let test_gc_roots () =
  let pkg = Dd.create () in
  let dd = Dd_circuit.of_circuit pkg ghz3 in
  Dd.root pkg dd;
  let nodes_before = Dd.node_count pkg dd in
  let trace_before = Dd.trace pkg dd in
  (* Junk that nothing roots: must be swept. *)
  for i = 0 to 7 do
    ignore (Dd.kets pkg 3 i)
  done;
  let live_before = Dd.live pkg in
  let reclaimed = Dd.gc pkg in
  Alcotest.(check bool) "collection reclaimed the kets" true (reclaimed > 0);
  Alcotest.(check bool) "live dropped" true (Dd.live pkg < live_before);
  (* The rooted miter is untouched. *)
  Alcotest.(check int) "rooted node count unchanged" nodes_before (Dd.node_count pkg dd);
  Alcotest.check cx_testable "rooted trace unchanged" trace_before (Dd.trace pkg dd);
  (* Unrooting releases it: only the memoised identity chain remains. *)
  Dd.unroot pkg dd;
  let live_rooted = Dd.live pkg in
  ignore (Dd.gc pkg);
  Alcotest.(check bool) "live drops after unroot + gc" true (Dd.live pkg < live_rooted);
  let s = Dd.stats pkg in
  Alcotest.(check int) "gc runs counted" 2 s.Dd.gc_runs;
  Alcotest.(check bool) "reclaimed counted" true (s.Dd.gc_reclaimed >= reclaimed)

let test_root_counting () =
  let pkg = Dd.create () in
  let dd = Dd_circuit.of_circuit pkg ghz3 in
  Dd.root pkg dd;
  Dd.root pkg dd;
  Dd.unroot pkg dd;
  ignore (Dd.gc pkg);
  (* One registration remains: the edge must still be canonical. *)
  let again = Dd_circuit.of_circuit pkg ghz3 in
  Alcotest.(check int) "still hash-conses onto the root" (Dd.node_id dd) (Dd.node_id again)

let test_auto_gc_threshold_zero () =
  let pkg = Dd.create ~gc_threshold:0 () in
  let dd = Dd_circuit.of_circuit pkg (Circuit.append ghz3 (Circuit.inverse ghz3)) in
  Alcotest.(check bool) "is identity with gc at every gate" true (Dd.is_identity pkg 3 dd);
  let s = Dd.stats pkg in
  Alcotest.(check bool) "gc ran automatically" true (s.Dd.gc_runs >= 1)

let random_clifford_t_circuit seed n n_ops =
  let rng = Rng.make ~seed in
  let c = ref (Circuit.create n) in
  for _ = 1 to n_ops do
    let q = Rng.int rng n in
    let q2 = (q + 1 + Rng.int rng (n - 1)) mod n in
    match Rng.int rng 6 with
    | 0 -> c := Circuit.h !c q
    | 1 -> c := Circuit.t_gate !c q
    | 2 -> c := Circuit.s !c q
    | 3 -> c := Circuit.cx !c q q2
    | 4 -> c := Circuit.rz !c (Phase.of_pi_fraction (Rng.int rng 16) 8) q
    | _ -> c := Circuit.swap !c q q2
  done;
  !c

let test_bounded_cache_overwrites () =
  (* A tiny compute cache forces collisions: the workload still computes
     correctly, and the overwrite counter records the evictions. *)
  let pkg = Dd.create ~cache_bits:2 () in
  let c = random_clifford_t_circuit 7 4 40 in
  let dd = Dd_circuit.of_circuit pkg c in
  check_matrix "tiny cache still correct" (Unitary.unitary c)
    (Dd_export.to_dmatrix pkg dd ~n:4);
  let s = Dd.stats pkg in
  Alcotest.(check bool) "collisions recorded" true
    (s.Dd.mm.Dd.s_overwrites > 0 || s.Dd.add_.Dd.s_overwrites > 0)

let prop_circuit_dd_matches_dense =
  qtest ~count:40 "dd: circuit DD matches dense unitary"
    QCheck.(make ~print:string_of_int Gen.int)
    (fun seed ->
      let n = 2 + (abs seed mod 3) in
      let c = random_clifford_t_circuit seed n 15 in
      let pkg = Dd.create () in
      let dd = Dd_circuit.of_circuit pkg c in
      Dmatrix.equal ~tol:1e-8 (Unitary.unitary c) (Dd_export.to_dmatrix pkg dd ~n))

let prop_miter_identity =
  qtest ~count:40 "dd: G . G^dagger reduces to the identity node"
    QCheck.(make ~print:string_of_int Gen.int)
    (fun seed ->
      let n = 2 + (abs seed mod 3) in
      let c = random_clifford_t_circuit seed n 20 in
      let pkg = Dd.create () in
      let dd = Dd_circuit.of_circuit pkg (Circuit.append c (Circuit.inverse c)) in
      Dd.is_identity pkg n dd)

let prop_simulation_matches_dense =
  qtest ~count:40 "dd: simulation matches dense state vector"
    QCheck.(make ~print:string_of_int Gen.int)
    (fun seed ->
      let n = 2 + (abs seed mod 3) in
      let c = random_clifford_t_circuit seed n 15 in
      let input = abs seed mod (1 lsl n) in
      let pkg = Dd.create () in
      let v = Dd_export.to_vector pkg (Dd_circuit.simulate pkg c ~input) ~n in
      let expect = Unitary.basis_state n input in
      Unitary.apply_to_vector c expect;
      Array.for_all2 (fun a b -> Cx.approx_equal ~tol:1e-8 a b) expect v)

let prop_trace_matches_dense =
  qtest ~count:30 "dd: trace matches dense trace"
    QCheck.(make ~print:string_of_int Gen.int)
    (fun seed ->
      let n = 2 + (abs seed mod 2) in
      let c = random_clifford_t_circuit seed n 10 in
      let pkg = Dd.create () in
      let dd = Dd_circuit.of_circuit pkg c in
      Cx.approx_equal ~tol:1e-8 (Dd.trace pkg dd) (Dmatrix.trace (Unitary.unitary c)))

(* The checker's float tolerance, pinned: a Bell prefix followed by a
   stray rz(e).  The miter reduces to rz(e) on one wire, whose weight
   e^(ie) is not snapped onto 1 by the weight table (its imaginary part
   is far above the 1e-10 interning tolerance), so the diagram is never
   the structural identity.  What decides is the fidelity cut
   1 - 1e-9 against |tr D| / 2^n = cos (e/2) ~ 1 - e^2/8: e = 1e-4 is
   refuted, e = 1e-5 reads as equivalent. *)
let test_tolerance_pin () =
  let bell = Circuit.cx (Circuit.h (Circuit.create 2) 0) 0 1 in
  List.iter
    (fun (eps, expected) ->
      let bell' = Circuit.rz bell (Phase.of_float eps) 1 in
      let pkg = Dd.create () in
      let d = Dd_circuit.of_circuit pkg (Circuit.append bell' (Circuit.inverse bell)) in
      Alcotest.(check bool)
        (Printf.sprintf "eps %g: not the structural identity" eps)
        false (Dd.is_identity pkg 2 d);
      Alcotest.(check bool)
        (Printf.sprintf "eps %g: fidelity cut" eps)
        (expected = Equivalence.Equivalent)
        (Dd.fidelity_to_identity pkg ~n:2 d >= Miter.fidelity_threshold);
      List.iter
        (fun strategy ->
          let r = Qcec.check ~strategy bell bell' in
          Alcotest.(check string)
            (Printf.sprintf "eps %g, %s" eps (Qcec.strategy_to_string strategy))
            (Equivalence.outcome_to_string expected)
            (Equivalence.outcome_to_string r.Equivalence.outcome))
        [ Qcec.Combined; Qcec.Alternating ])
    [ (1e-4, Equivalence.Not_equivalent); (1e-5, Equivalence.Equivalent) ]

let suite =
  [
    Alcotest.test_case "complex table interning" `Quick test_wtable_interning;
    Alcotest.test_case "complex table non-finite inputs" `Quick test_wtable_nonfinite;
    Alcotest.test_case "identity memoised across gc" `Quick test_identity_memoised;
    Alcotest.test_case "stats: compute-cache hits" `Quick test_stats_hits;
    Alcotest.test_case "gc: roots survive, garbage swept" `Quick test_gc_roots;
    Alcotest.test_case "gc: root registrations counted" `Quick test_root_counting;
    Alcotest.test_case "gc: automatic at threshold 0" `Quick test_auto_gc_threshold_zero;
    Alcotest.test_case "bounded cache overwrites" `Quick test_bounded_cache_overwrites;
    Alcotest.test_case "identity dd (fig 3b)" `Quick test_identity_dd;
    Alcotest.test_case "hash consing" `Quick test_hash_consing;
    Alcotest.test_case "gate dds vs dense" `Quick test_gate_dd_dense;
    Alcotest.test_case "ghz dd compact (fig 3a)" `Quick test_ghz_dd;
    Alcotest.test_case "mul/add/adjoint vs dense" `Quick test_mul_add_adjoint_dense;
    Alcotest.test_case "miter is identity" `Quick test_gdg_g_is_identity;
    Alcotest.test_case "simulation" `Quick test_simulation;
    Alcotest.test_case "inner products" `Quick test_inner_product;
    Alcotest.test_case "basis kets" `Quick test_kets;
    Alcotest.test_case "canonicity across op orders" `Quick test_canonicity;
    Alcotest.test_case "tolerance: fidelity cut decides rz(eps)" `Quick test_tolerance_pin;
    prop_circuit_dd_matches_dense;
    prop_miter_identity;
    prop_simulation_matches_dense;
    prop_trace_matches_dense;
  ]
