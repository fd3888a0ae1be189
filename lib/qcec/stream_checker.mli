(** Streaming decision-diagram equivalence check.

    Consumes two QASM files through {!Oqec_qasm.Qasm_stream} and applies
    their gates to a miter as they are parsed: memory use is bounded by
    the evolving diagram plus one input chunk per side, independent of
    circuit length, so checks can run over files far larger than memory.

    [scheme] adapts the {!Dd_scheme} policies to the stream setting:
    [Proportional], [Cost_metric] and [Auto] schedule proportionally to
    input bytes consumed (gate counts and costs are unknown mid-stream),
    [Alternating] alternates strictly on applied operations, and
    [Lookahead] speculates one gate per side and keeps the smaller
    diagram.

    The streamed subset excludes measurement and layout metadata (see
    {!Oqec_qasm.Qasm_stream}); files outside the subset raise
    [Qasm_stream.Unsupported]. *)

(** [check ?scheme ?chunk_size ?tol ?gc_threshold ?deadline ?sink
    a b] returns a report with [method_used = Alternating_dd] and
    checker name ["stream-dd"]. *)
val check :
  ?scheme:Dd_scheme.t ->
  ?chunk_size:int ->
  ?tol:float ->
  ?gc_threshold:int ->
  ?deadline:float ->
  ?sink:Engine.Trace.sink ->
  string ->
  string ->
  Equivalence.report
