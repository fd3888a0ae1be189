open Oqec_circuit
open Oqec_dd
open Oqec_qasm

(* Streaming alternating-miter equivalence check: both circuits are
   consumed through {!Qasm_stream} and applied to the miter as they are
   parsed, so memory use is bounded by the diagram (plus one input
   chunk per side) rather than by circuit length.

   The scheduling policy adapts {!Dd_scheme} to the streaming setting,
   where total gate counts are unknown until the streams are exhausted:
   [Proportional] (and [Cost_metric], whose gate-weight totals are
   equally unknowable up front) fall back to byte proportions — file
   sizes are known and gate density is near-uniform for generated
   workloads, so the byte ratio keeps the product balanced around the
   identity just as the gate-count ratio does.  [Alternating] alternates
   strictly on applied-operation counts, and [Lookahead] applies one
   gate from each side speculatively and keeps the smaller diagram.
   [Auto] has no whole-circuit fingerprint to dispatch on and degrades
   to the byte-proportional rule.

   Operations are lowered to elementary gates one at a time (the same
   {!Decompose.elementary} pass the batch checker runs over the whole
   circuit; it is local, so per-operation lowering produces the same
   gate stream), and the left side is inverted operation by operation:
   D accumulates b_j ... b_0 * inv(a_0) ... inv(a_i), which is the
   identity at the end iff the circuits agree. *)

(* Parse header statements (includes, gate definitions) until the qreg
   is known.  Stray pre-qreg barriers are dropped — they carry no
   unitary meaning. *)
let drive_header s =
  while (not (Qasm_stream.header_done s)) && Qasm_stream.step s ~emit:ignore do
    ()
  done;
  if not (Qasm_stream.header_done s) then
    raise (Qasm_stream.Unsupported "stream ended before any qreg declaration")

(* Refill [q] with the elementary lowering of the next operations;
   false when the stream is exhausted and the queue stays empty.  At
   most one op-producing statement is parsed per call: the lexer
   cursor must track the application frontier, or the byte-ratio
   policy below would lose its progress signal. *)
let refill s q ~lower =
  if Queue.is_empty q then begin
    let got = ref false in
    let emit op =
      List.iter
        (fun o ->
          Queue.add o q;
          got := true)
        (lower op)
    in
    while (not !got) && Qasm_stream.step s ~emit do
      ()
    done
  end;
  not (Queue.is_empty q)

let checker ~scheme sa sb : Engine.checker =
  (module struct
    let name = "stream-dd"

    let run ctx _ =
      drive_header sa;
      drive_header sb;
      let n = max (Qasm_stream.num_qubits sa) (Qasm_stream.num_qubits sb) in
      let pkg =
        Dd.create ?tol:(Engine.Ctx.tol ctx) ?gc_threshold:(Engine.Ctx.gc_threshold ctx)
          ()
      in
      let lower op = Circuit.ops (Decompose.elementary (Circuit.add (Circuit.create n) op)) in
      let qa = Queue.create () and qb = Queue.create () in
      let d = ref (Dd.identity pkg n) in
      Dd.root pkg !d;
      Miter.hook_pkg ctx pkg;
      let commit nd =
        Dd.root pkg nd;
        Dd.unroot pkg !d;
        d := nd
      in
      (* Barriers are never applied to the diagram (they lower to no
         gates); they are counted as synchronisation tokens.  When the
         two sides were produced with barriers at matching logical
         positions, the policy below bounds cursor skew by one barrier
         interval — without a hard alignment signal, byte-proportional
         alternation drifts like a random walk and the miter grows
         with stream length.  Mismatched or absent barriers degrade
         scheduling, never correctness. *)
      let bars_a = ref 0 and bars_b = ref 0 in
      (* Re-anchor at sync points: when both sides have crossed the
         same number of barriers and the miter passes the same
         identity test the final verdict uses, snap it back to the
         exact identity.  This discards the accumulated global phase
         and, crucially, the floating-point dirt of the interval —
         without it the weight set grows without bound (every interval
         starts from a slightly dirty quasi-identity, canonical
         weights stop collapsing, sharing and cache hits degrade) and
         per-gate cost grows linearly with stream position.  Each
         interval is judged against the tolerance independently, so
         errors do not accumulate across intervals. *)
      (* Byte anchors of the last sync point.  The proportional rule
         below measures progress from these rather than from the start
         of the stream: the byte-density difference between the two
         sides is a random walk, and measured globally it makes the
         intra-interval cursor skew — and with it the transient miter
         size — grow with stream position. *)
      let last_a = ref 0 and last_b = ref 0 in
      let reanchor () =
        if !bars_a = !bars_b then begin
          last_a := Qasm_stream.consumed_bytes sa;
          last_b := Qasm_stream.consumed_bytes sb;
          if Miter.conclude_edge pkg n !d = Equivalence.Equivalent then
            commit (Dd.identity pkg n)
        end
      in
      let ops_a = ref 0 and ops_b = ref 0 in
      let apply_a () =
        match Queue.pop qa with
        | Circuit.Barrier ->
            incr bars_a;
            reanchor ()
        | op ->
            incr ops_a;
            Engine.Ctx.incr ctx Engine.Dd_left_applied;
            commit (Dd_circuit.apply_op_left pkg n !d (Circuit.inverse_op op))
      in
      let apply_b () =
        match Queue.pop qb with
        | Circuit.Barrier ->
            incr bars_b;
            reanchor ()
        | op ->
            incr ops_b;
            Engine.Ctx.incr ctx Engine.Dd_right_applied;
            commit (Dd_circuit.apply_op pkg n !d op)
      in
      let ta = Qasm_stream.total_bytes sa and tb = Qasm_stream.total_bytes sb in
      let continue = ref true in
      while !continue do
        let have_a = refill sa qa ~lower and have_b = refill sb qb ~lower in
        if not (have_a || have_b) then continue := false
        else if not have_b then apply_a ()
        else if not have_a then apply_b ()
        else if !bars_a > !bars_b then apply_b ()
        else if !bars_b > !bars_a then apply_a ()
        else if Queue.peek qa = Circuit.Barrier then apply_a ()
        else if Queue.peek qb = Circuit.Barrier then apply_b ()
        else begin
          match scheme with
          | Dd_scheme.Alternating ->
              (* Strict one-to-one alternation on applied operations,
                 the batch checker's baseline scheme. *)
              if !ops_a <= !ops_b then apply_a () else apply_b ()
          | Dd_scheme.Proportional | Dd_scheme.Cost_metric | Dd_scheme.Auto ->
              (* Advance the side lagging in consumed-bytes proportion,
                 mirroring the proportional scheme's ia*kb <= ib*ka.
                 Bytes are a fuzzy stand-in for gate indices, so the
                 product can drift away from the identity when the
                 sides' gate densities diverge; Lookahead resists the
                 drift at the price of applying each gate twice. *)
              if
                (Qasm_stream.consumed_bytes sa - !last_a) * tb
                <= (Qasm_stream.consumed_bytes sb - !last_b) * ta
              then apply_a ()
              else apply_b ()
          | Dd_scheme.Lookahead ->
              (* Apply one gate from each side speculatively and keep
                 the smaller diagram (see {!Miter.peek_left});
                 the losing side's gate stays queued. *)
              let cand_a = Dd_circuit.apply_op_left pkg n !d (Circuit.inverse_op (Queue.peek qa)) in
              Dd.root pkg cand_a;
              let cand_b = Dd_circuit.apply_op pkg n !d (Queue.peek qb) in
              Dd.unroot pkg cand_a;
              if Dd.node_count pkg cand_a <= Dd.node_count pkg cand_b then begin
                ignore (Queue.pop qa);
                incr ops_a;
                Engine.Ctx.incr ctx Engine.Dd_left_applied;
                commit cand_a
              end
              else begin
                ignore (Queue.pop qb);
                incr ops_b;
                Engine.Ctx.incr ctx Engine.Dd_right_applied;
                commit cand_b
              end
        end
      done;
      let outcome =
        Engine.Ctx.span ctx ~cat:"dd" "conclude" (fun () -> Miter.conclude_edge pkg n !d)
      in
      let st = Miter.package_counters ctx pkg in
      {
        Engine.outcome;
        peak_size = Dd.allocated pkg;
        final_size = Dd.node_count pkg !d;
        simulations = 0;
        note = "";
        dd = Some st;
        certificate = None;
      }
  end)

(* [check ... path_a path_b] streams both files through the
   alternating miter.  The dummy circuits handed to {!Engine.run} (and
   the empty pair it prepares from them) are never inspected: the
   checker closes over the streams instead.  Streamed pairs are not
   stripped of idle wires: that would need a pre-pass over both files
   before the first gate is applied. *)
let check ?(scheme = Dd_scheme.Proportional) ?chunk_size ?tol ?gc_threshold ?deadline ?sink
    path_a path_b =
  let sa = Qasm_stream.open_file ?chunk_size path_a
  and sb = Qasm_stream.open_file ?chunk_size path_b in
  Fun.protect
    ~finally:(fun () ->
      Qasm_stream.close sa;
      Qasm_stream.close sb)
    (fun () ->
      let ctx = Engine.Ctx.make ?deadline ?tol ?gc_threshold ?sink () in
      Engine.run ~ctx ~method_used:Equivalence.Alternating_dd (checker ~scheme sa sb)
        (Circuit.create 0) (Circuit.create 0))
