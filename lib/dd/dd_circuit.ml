open Oqec_base
open Oqec_circuit

(* Circuit application over the {!Dd} package: gate-DD construction and
   the safe-point protocol. *)

let swap_ops a b =
  [
    Circuit.Ctrl ([ a ], Gate.X, b);
    Circuit.Ctrl ([ b ], Gate.X, a);
    Circuit.Ctrl ([ a ], Gate.X, b);
  ]

(* Build the DD of a (multi-)controlled single-qubit gate embedded in
   [n] qubits, bottom-up.  Below the target we carry two diagonal
   operators: [act], the projector onto "all controls seen so far are
   1" (tensored with identity on non-control wires), and
   [inact] = I - act; at the target level the gate applies on the
   active part and identity on the inactive part; above the target,
   further controls select between the accumulated operator and the
   identity. *)
let gate_dd pkg n ~controls ~target (u : Dmatrix.t) : Dd.edge =
  assert (target >= 0 && target < n);
  let is_control = Array.make n false in
  List.iter
    (fun c ->
      assert (c >= 0 && c < n && c <> target);
      is_control.(c) <- true)
    controls;
  let wrap v e = Dd.make_node pkg v [| e; Dd.zero_edge; Dd.zero_edge; e |] in
  let u00 = Dmatrix.get u 0 0
  and u01 = Dmatrix.get u 0 1
  and u10 = Dmatrix.get u 1 0
  and u11 = Dmatrix.get u 1 1 in
  let rec below v ~act ~inact ~ident =
    if v = target then begin
      let gate =
        Dd.make_node pkg v
          [|
            Dd.add pkg (Dd.scale pkg u00 act) inact;
            Dd.scale pkg u01 act;
            Dd.scale pkg u10 act;
            Dd.add pkg (Dd.scale pkg u11 act) inact;
          |]
      in
      above (v + 1) ~gate ~ident:(wrap v ident)
    end
    else if is_control.(v) then
      below (v + 1)
        ~act:(Dd.make_node pkg v [| Dd.zero_edge; Dd.zero_edge; Dd.zero_edge; act |])
        ~inact:(Dd.make_node pkg v [| ident; Dd.zero_edge; Dd.zero_edge; inact |])
        ~ident:(wrap v ident)
    else below (v + 1) ~act:(wrap v act) ~inact:(wrap v inact) ~ident:(wrap v ident)
  and above v ~gate ~ident =
    if v >= n then gate
    else if is_control.(v) then
      above (v + 1)
        ~gate:(Dd.make_node pkg v [| ident; Dd.zero_edge; Dd.zero_edge; gate |])
        ~ident:(wrap v ident)
    else above (v + 1) ~gate:(wrap v gate) ~ident:(wrap v ident)
  in
  below 0 ~act:Dd.one_edge ~inact:Dd.zero_edge ~ident:Dd.one_edge

(* The DDs of one circuit operation (SWAPs expand to three CNOTs). *)
let op_dds pkg n (op : Circuit.op) : Dd.edge list =
  match op with
  | Circuit.Gate (g, t) -> [ gate_dd pkg n ~controls:[] ~target:t (Gate.matrix g) ]
  | Circuit.Ctrl (cs, g, t) -> [ gate_dd pkg n ~controls:cs ~target:t (Gate.matrix g) ]
  | Circuit.Swap (a, b) ->
      List.map
        (function
          | Circuit.Ctrl ([ c ], Gate.X, t) ->
              gate_dd pkg n ~controls:[ c ] ~target:t (Gate.matrix Gate.X)
          | _ -> assert false)
        (swap_ops a b)
  | Circuit.Barrier -> []

(* Gate application doubles as the package's GC safe point: the
   incoming diagram is pinned, a collection may run, and only then are
   the gate DDs built (so they can never be swept mid-application). *)
let at_safe_point pkg dd f =
  Dd.at_safe_point_hook pkg;
  Dd.root pkg dd;
  Dd.maybe_gc pkg;
  match f () with
  | r ->
      Dd.unroot pkg dd;
      r
  | exception e ->
      Dd.unroot pkg dd;
      raise e

let apply_op pkg n (dd : Dd.edge) (op : Circuit.op) : Dd.edge =
  at_safe_point pkg dd (fun () ->
      List.fold_left (fun acc g -> Dd.mul pkg g acc) dd (op_dds pkg n op))

let apply_op_left pkg n (dd : Dd.edge) (op : Circuit.op) : Dd.edge =
  at_safe_point pkg dd (fun () ->
      List.fold_left (fun acc g -> Dd.mul pkg acc g) dd (op_dds pkg n op))

let apply_op_vec pkg n (v : Dd.edge) (op : Circuit.op) : Dd.edge =
  at_safe_point pkg v (fun () ->
      List.fold_left (fun acc g -> Dd.mul_vec pkg g acc) v (op_dds pkg n op))

let of_circuit pkg (c : Circuit.t) : Dd.edge =
  let n = Circuit.num_qubits c in
  List.fold_left (fun acc op -> apply_op pkg n acc op) (Dd.identity pkg n) (Circuit.ops c)

let simulate pkg (c : Circuit.t) ~(input : int) : Dd.edge =
  let n = Circuit.num_qubits c in
  List.fold_left
    (fun acc op -> apply_op_vec pkg n acc op)
    (Dd.kets pkg n input)
    (Circuit.ops c)
