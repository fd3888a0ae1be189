open Oqec_base
open Oqec_circuit
open Oqec_compile

(* Invariant maintained below: U(prefix) . P(layout) = P(pi) . U(emitted),
   where pi is the tracked logical-to-wire assignment.  Gates on wires
   [ws] therefore re-emit on logicals [inv ws]; SWAPs update pi only.  At
   the end, Eff(c) = P(inv output_perm . pi) . U(emitted), and that
   residual permutation is realised by explicit SWAP gates. *)
let flatten ?(reconstruct_swaps = true) c =
  let c = if reconstruct_swaps then Optimize.reconstruct_swaps c else c in
  let n = Circuit.num_qubits c in
  (* Layouts recorded on a circuit narrower than its final width (after
     [align]) are padded with the identity on the remaining wires. *)
  let extend p =
    if Perm.size p = n then p
    else begin
      let a = Array.make n (-1) in
      Array.iteri (fun l w -> a.(l) <- w) (Perm.to_array p);
      let used = Array.make n false in
      Array.iter (fun w -> if w >= 0 then used.(w) <- true) a;
      let free = ref (List.filter (fun w -> not used.(w)) (List.init n Fun.id)) in
      Array.iteri
        (fun l w ->
          if w < 0 then
            match !free with
            | f :: rest ->
                a.(l) <- f;
                free := rest
            | [] -> assert false)
        a;
      Perm.of_array a
    end
  in
  let layout =
    match Circuit.initial_layout c with Some l -> extend l | None -> Perm.id n
  in
  let pi = Perm.to_array layout in
  let inv = Array.make n 0 in
  Array.iteri (fun l w -> inv.(w) <- l) pi;
  let out = ref (Circuit.create ~name:(Circuit.name c ^ "~flat") n) in
  let handle op =
    match op with
    | Circuit.Barrier -> ()
    | Circuit.Swap (w1, w2) ->
        let l1 = inv.(w1) and l2 = inv.(w2) in
        pi.(l1) <- w2;
        pi.(l2) <- w1;
        inv.(w1) <- l2;
        inv.(w2) <- l1
    | Circuit.Gate (g, t) -> out := Circuit.add !out (Circuit.Gate (g, inv.(t)))
    | Circuit.Ctrl (cs, g, t) ->
        out :=
          Circuit.add !out (Circuit.Ctrl (List.map (fun q -> inv.(q)) cs, g, inv.(t)))
  in
  List.iter handle (Circuit.ops c);
  let output =
    match Circuit.output_perm c with Some o -> extend o | None -> Perm.id n
  in
  let residual = Perm.compose (Perm.inverse output) (Perm.of_array pi) in
  if not (Perm.is_identity residual) then begin
    let swaps = List.rev (Perm.transpositions residual) in
    List.iter (fun (a, b) -> out := Circuit.add !out (Circuit.Swap (a, b))) swaps
  end;
  !out

let align a b =
  let n = max (Circuit.num_qubits a) (Circuit.num_qubits b) in
  (Circuit.embed a ~num_qubits:n, Circuit.embed b ~num_qubits:n)

(* A wire neither flattened side touches carries the identity on both,
   and (U (x) I = V (x) I) iff (U = V) up to global phase: it can be
   dropped.  Residual output-permutation SWAPs count as touches. *)
type prepared = {
  source : Circuit.t * Circuit.t;
  full : Circuit.t * Circuit.t;
  width : int;
  wires : int array;
  mutable stripped : (Circuit.t * Circuit.t) option;
  lock : Mutex.t;
}

let prepare g g' =
  let ga, gb = align g g' in
  let a = flatten ga and b = flatten gb in
  let width = Circuit.num_qubits a in
  let touched = Array.make width false in
  let mark c =
    List.iter
      (fun op -> List.iter (fun q -> touched.(q) <- true) (Circuit.op_qubits op))
      (Circuit.ops c)
  in
  mark a;
  mark b;
  let wires = List.filter (fun q -> touched.(q)) (List.init width Fun.id) in
  (* Keep at least one wire, so every checker sees a non-empty register. *)
  let wires = if wires = [] && width > 0 then [ 0 ] else wires in
  {
    source = (g, g');
    full = (a, b);
    width;
    wires = Array.of_list wires;
    stripped = None;
    lock = Mutex.create ();
  }

let source p = p.source
let full p = p.full
let width p = p.width
let wires p = p.wires
let kept p = Array.length p.wires

let strip p =
  let index = Array.make p.width (-1) in
  Array.iteri (fun i q -> index.(q) <- i) p.wires;
  let relabel c =
    let op = function
      | Circuit.Gate (g, t) -> Circuit.Gate (g, index.(t))
      | Circuit.Ctrl (cs, g, t) ->
          Circuit.Ctrl (List.map (fun q -> index.(q)) cs, g, index.(t))
      | Circuit.Swap (x, y) -> Circuit.Swap (index.(x), index.(y))
      | Circuit.Barrier -> Circuit.Barrier
    in
    Circuit.add_list
      (Circuit.create ~name:(Circuit.name c) (kept p))
      (List.map op (Circuit.ops c))
  in
  (relabel (fst p.full), relabel (snd p.full))

(* Built on first use, under the record's lock: portfolio racers share
   one record across domains, and a ZX-only check never builds it. *)
let stripped p =
  Mutex.protect p.lock (fun () ->
      match p.stripped with
      | Some s -> s
      | None ->
          let s = strip p in
          p.stripped <- Some s;
          s)
