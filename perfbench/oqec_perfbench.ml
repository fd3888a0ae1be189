(* The benchmark's workload program.  It builds the seeded draws and runs
   the in-process checks; run.py turns its JSON lines into metrics.

     oqec_perfbench.exe oneshot WORKLOAD SEED SECONDS TRACE
       compiled-dd or optimized-zx: prints one "setup" line, one "check"
       line per check, and a final "end" line.
     oqec_perfbench.exe serve-gen SEED SECONDS TRACE FILE
       serve-mix: writes the connection's request schedule to FILE
       and prints one "setup" line (plus client-side layer timings when
       TRACE is 1).
     oqec_perfbench.exe hostref
       times the host reference work (one "hostref" line).

   The truth of every pair comes from how it was built: the derived side
   of an equivalent pair is the output of Compile.run / Optimize.optimize,
   and a faulty pair applies one provably equivalence-breaking injector to
   it (inject_fault's Missing_gate, or flip_cnot).  No checker is
   consulted. *)

open Oqec_base
open Oqec_circuit
open Oqec_compile
open Oqec_qasm
open Oqec_qcec
module W = Oqec_workloads.Workloads

(* The per-check limit.  Every size in the draws below checks in well
   under 1 s on a 2-core x86-64 VM, a margin of more than 10x. *)
let check_timeout = 10.0

(* -------------------------------------------------------------- draws *)

type kind = Equal | Missing | Flipped

let kinds = [| Equal; Missing; Flipped |]

let kind_name = function
  | Equal -> "equivalent"
  | Missing -> "missing-gate"
  | Flipped -> "flipped-cnot"

type family = { name : string; variants : int array; make : seed:int -> int -> Circuit.t }

type pair = { id : int; family : string; variant : int; kind : kind; left : string; right : string }

let fam name variants make = { name; variants; make }

(* Table-1 algorithm families at sizes whose Combined check stays far
   from the limit (qwalk-6 "1 gate missing" takes ~10 s; grover-5 and
   qwalk-5 over 1 s).  qpe-exact-7 (~0.5 s) is left out too: alone at
   the top, its few samples per run made the tail percentile jumpy.  The
   variant of qwalk is its step count. *)
let compiled_families =
  [
    fam "grover" [| 3 |] (fun ~seed n -> W.grover ~seed n);
    fam "qft" [| 5; 6; 7 |] (fun ~seed:_ n -> W.qft n);
    fam "qpe-exact" [| 4; 5; 6 |] (fun ~seed n -> W.qpe_exact ~seed n);
    fam "ghz" [| 12; 16; 20 |] (fun ~seed:_ n -> W.ghz n);
    fam "graphstate" [| 8; 10; 12 |] (fun ~seed n -> W.graph_state ~seed n);
    fam "qwalk" [| 2; 3; 4 |] (fun ~seed:_ steps -> W.random_walk ~steps 3);
  ]

(* Reversible families plus qwalk, grover and qft, sized so ZX's
   full_reduce does most of the work (the "small" Table-1 sizes check in
   ~4 ms) without reaching the heavy 8-bit adders (2-4.5 s), qwalk-5's
   0.5 s or hwb-5's 0.8 s faulty pairs, whose few samples made the tail
   jumpy.  urf stays at 40-60 gates on 5 qubits: at 90-120
   gates ZX leaves about 1 in 60 equivalent pairs at no information (see
   perfbench/README.md).  The variant of urf is its gate count, of qwalk
   its step count. *)
let optimized_families =
  [
    fam "urf" [| 40; 50; 60 |] (fun ~seed gates -> W.random_reversible ~seed ~gates 5);
    (* odd constants, so the increment ripples through every bit *)
    fam "const-adder" [| 5; 6 |] (fun ~seed bits ->
        W.const_adder_mod ~bits ~constant:(1 + (2 * (seed mod ((1 lsl (bits - 1)) - 1)))));
    fam "comparator" [| 6; 7; 8; 9; 10 |] (fun ~seed:_ n -> W.comparator n);
    fam "hwb" [| 4 |] (fun ~seed:_ n -> W.hidden_weighted_bit n);
    fam "qwalk" [| 3; 4; 5 |] (fun ~seed:_ steps -> W.random_walk ~steps 4);
    fam "grover" [| 4; 5 |] (fun ~seed n -> W.grover ~seed n);
    fam "qft" [| 12; 13; 14; 15; 16 |] (fun ~seed:_ n -> W.qft n);
  ]

type derive = Compiled | Optimized

(* Layer timings collected while building a draw. *)
let route_s = ref 0.0
let optimize_s = ref 0.0

let timed acc f =
  let t0 = Mclock.now () in
  let r = f () in
  acc := !acc +. (Mclock.now () -. t0);
  r

let derive how rng g =
  match how with
  | Compiled ->
      let arch = Architecture.manhattan in
      let initial_layout = Compile.spread_layout arch rng in
      timed route_s (fun () -> Compile.run ~initial_layout arch g)
  | Optimized ->
      let lowered = Decompose.to_cx_basis ~keep_swaps:false (Decompose.elementary g) in
      timed optimize_s (fun () -> Optimize.optimize lowered)

(* inject_fault draws its fault model at random; walk its seed until it
   picks Missing_gate, the model guarded against deleting an
   identity-acting gate. *)
let missing_gate ~seed c =
  let rec go k =
    if k > 1000 then failwith "no deletable gate"
    else
      match W.inject_fault ~seed:(seed + k) c with
      | Some (c', W.Missing_gate) -> c'
      | _ -> go (k + 1)
  in
  go 0

(* Operations without a qelib1 spelling (e.g. grover's multi-controlled
   Z) are decomposed first; the unitary is unchanged. *)
let render c =
  try Qasm.to_string c with Invalid_argument _ -> Qasm.to_string (Decompose.elementary c)

(* One round holds every (family, kind) cell once, in a seeded order;
   variants rotate with the round so that a run of whole rounds keeps the
   same mix whatever the seed.  Every pair is distinct: its generator,
   layout and fault position come from its own seed, and a trailing
   comment makes its texts unique (so the service's parse cache is only
   ever hit by resubmissions). *)
let round how families ~seed r =
  let rng = Rng.make ~seed:((seed * 7919) + r) in
  let nk = Array.length kinds in
  let cells =
    List.concat
      (List.mapi
         (fun fi f -> List.init nk (fun ki -> (fi, f, ki)))
         families)
  in
  let cells = Array.of_list cells in
  let n = Array.length cells in
  for i = n - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let t = cells.(i) in
    cells.(i) <- cells.(j);
    cells.(j) <- t
  done;
  Array.to_list
    (Array.mapi
       (fun i (fi, f, ki) ->
         let id = (r * n) + i in
         let pseed = 1 + Rng.int rng 1_000_000 in
         let prng = Rng.make ~seed:pseed in
         let variant = f.variants.((r + ki + fi) mod Array.length f.variants) in
         let g = f.make ~seed:pseed variant in
         let d = derive how prng g in
         let kind = kinds.(ki) in
         let d' =
           match kind with
           | Equal -> d
           | Missing -> missing_gate ~seed:pseed d
           | Flipped -> W.flip_cnot ~seed:pseed d
         in
         let tag = Printf.sprintf "// perfbench pair %d\n" id in
         { id; family = f.name; variant; kind; left = render g ^ tag; right = render d' ^ tag })
       cells)

let draw how families ~seed ~rounds = List.init rounds (round how families ~seed)

(* Rounds built up front: [round_s] is the fastest round time seen on
   the 2-core VM the draws were sized on, plus half again; a run that
   exhausts them stops early. *)
let rounds_for ~seconds ~round_s = max 2 (int_of_float (ceil (1.5 *. seconds /. round_s)))

(* Set-up runs three times; run.py reports the median. *)
let setup_runs = 3

let build_setup build =
  let times = ref [] and last = ref [] in
  for _ = 1 to setup_runs do
    route_s := 0.0;
    optimize_s := 0.0;
    last := [];
    Gc.compact ();
    let t0 = Mclock.now () in
    last := build ();
    times := (Mclock.now () -. t0) :: !times
  done;
  (List.rev !times, !last)

(* -------------------------------------------------------------- output *)

(* Times go out as whole nanoseconds: Jsonv prints other floats with six
   significant digits. *)
let ns x = Jsonv.Num (Float.round (x *. 1e9))
let int n = Jsonv.Num (float_of_int n)
let line fields = print_endline (Jsonv.to_string (Jsonv.Obj fields))

let hwm_kb () = Option.value (Meminfo.vm_hwm_kb ()) ~default:0

(* -------------------------------------------------------- one-shot run *)

(* Per-check layer data for the traced check, read from the sink's
   spans (keyed by category and name: "build-miter" exists for both dd
   and zx) and from the report's engine_stats. *)
let layer_fields sink (r : Equivalence.report) =
  let span cat name =
    List.fold_left
      (fun acc -> function
        | Engine.Trace.Span s when s.cat = cat && s.name = name ->
            acc +. (Int64.to_float s.dur_ns /. 1e9)
        | _ -> acc)
      0.0 (Engine.Trace.events sink)
  in
  let counter key =
    List.fold_left
      (fun acc (e : Equivalence.engine_stats) ->
        acc + Option.value (List.assoc_opt key e.counters) ~default:0)
      0 r.engine_stats
  in
  let counters_with prefix =
    List.fold_left
      (fun acc (e : Equivalence.engine_stats) ->
        List.fold_left
          (fun acc (k, v) -> if String.starts_with ~prefix k then acc + v else acc)
          acc e.counters)
      0 r.engine_stats
  in
  let dd f = List.fold_left
      (fun acc (e : Equivalence.engine_stats) ->
        match e.dd with Some s -> f acc s | None -> acc)
  in
  let mm_hits = dd (fun a s -> a + s.Oqec_dd.Dd.mm.s_hits) 0 r.engine_stats in
  let mm_misses = dd (fun a s -> a + s.Oqec_dd.Dd.mm.s_misses) 0 r.engine_stats in
  [
    ("screen_ns", ns (span "sim" "screen"));
    ("stimuli", int (counter "sim.stimuli"));
    ("dd_build_ns", ns (span "dd" "build-miter"));
    ("dd_conclude_ns", ns (span "dd" "conclude"));
    ("dd_gates", int (counter "dd.gates_applied"));
    ("dd_allocated", int (dd (fun a s -> a + s.Oqec_dd.Dd.allocated) 0 r.engine_stats));
    ("dd_peak_live", int (dd (fun a s -> max a s.Oqec_dd.Dd.peak_live) 0 r.engine_stats));
    ("dd_mm_hits", int mm_hits);
    ("dd_mm_misses", int mm_misses);
    ("dd_gc_runs", int (counter "dd.gc_runs"));
    ("zx_translate_ns", ns (span "zx" "build-miter"));
    ("zx_reduce_ns", ns (span "zx" "full-reduce"));
    ("zx_rewrites", int (counters_with "zx.rewrites."));
    ("zx_spiders_peak", int (counter "zx.spiders.peak"));
    ("zx_worklist_peak", int (counter "zx.worklist.peak"));
  ]

let oneshot workload ~seed ~seconds ~trace =
  let how, families, strategy, round_s =
    match workload with
    | "compiled-dd" -> (Compiled, compiled_families, Qcec.Combined, 1.0)
    | "optimized-zx" -> (Optimized, optimized_families, Qcec.Zx, 0.9)
    | w -> failwith ("unknown one-shot workload " ^ w)
  in
  let rounds = rounds_for ~seconds ~round_s in
  let times, pairs = build_setup (fun () -> draw how families ~seed ~rounds) in
  line
    [
      ("type", Jsonv.Str "setup");
      ("setup_ns", Jsonv.Arr (List.map ns times));
      ("limit_ns", ns check_timeout);
      ("rounds", int rounds);
      ("route_ns", ns !route_s);
      ("optimize_ns", ns !optimize_s);
      ("pairs", int (List.length (List.concat pairs)));
    ];
  Gc.compact ();
  (* A one-shot check: parse both texts, then Qcec.check with the CLI's
     defaults apart from the per-check limit. *)
  let check ?sink p =
    let t0 = Mclock.now () in
    let a = Qasm.circuit_of_string p.left and b = Qasm.circuit_of_string p.right in
    let t1 = Mclock.now () in
    let r =
      match Qcec.check ~strategy ~timeout:check_timeout ?sink a b with
      | r -> Ok r
      | exception e -> Error (Printexc.to_string e)
    in
    let t2 = Mclock.now () in
    (r, t2 -. t0, t1 -. t0, (a, b))
  in
  let emit p ~traced r lat extra =
    let outcome, error =
      match r with
      | Ok (r : Equivalence.report) -> (Equivalence.outcome_to_string r.outcome, "")
      | Error msg -> ("error", msg)
    in
    line
      ([
         ("type", Jsonv.Str "check");
         ("id", int p.id);
         ("family", Jsonv.Str (Printf.sprintf "%s-%d" p.family p.variant));
         ("kind", Jsonv.Str (kind_name p.kind));
         ("outcome", Jsonv.Str outcome);
         ("error", Jsonv.Str error);
         ("latency_ns", ns lat);
         ("traced", Jsonv.Bool traced);
       ]
      @ extra)
  in
  let untraced p =
    let r, lat, _, _ = check p in
    emit p ~traced:false r lat []
  in
  let traced p =
    let sink = Engine.Trace.create () in
    let g0 = Gc.quick_stat () in
    let r, lat, parse, (a, b) = check ~sink p in
    let g1 = Gc.quick_stat () in
    let t0 = Mclock.now () in
    let a', b' = Flatten.align a b in
    ignore (Sys.opaque_identity (Flatten.flatten a', Flatten.flatten b'));
    let align = Mclock.now () -. t0 in
    let layers = match r with Ok r -> layer_fields sink r | Error _ -> [] in
    emit p ~traced:true r lat
      ([
         ("parse_ns", ns parse);
         ("bytes", int (String.length p.left + String.length p.right));
         ("align_ns", ns align);
         ("minor_words", int (int_of_float (g1.Gc.minor_words -. g0.Gc.minor_words)));
         ("promoted_words", int (int_of_float (g1.Gc.promoted_words -. g0.Gc.promoted_words)));
         ("major_collections", int (g1.Gc.major_collections - g0.Gc.major_collections));
       ]
      @ layers)
  in
  (* Whole rounds until the time is up.  A traced run checks every pair
     twice, untraced and traced, alternating which goes first. *)
  let t0 = Mclock.now () in
  let rec go = function
    | [] -> ()
    | rnd :: rest ->
        if Mclock.now () -. t0 < seconds then begin
          List.iter
            (fun p ->
              if not trace then untraced p
              else if p.id mod 2 = 0 then (untraced p; traced p)
              else (traced p; untraced p))
            rnd;
          go rest
        end
  in
  go pairs;
  line [ ("type", Jsonv.Str "end"); ("wall_ns", ns (Mclock.now () -. t0)); ("vm_hwm_kb", int (hwm_kb ())) ]

(* --------------------------------------------------- serve-mix schedule *)

(* The one connection takes the rounds in order.  Into each round of 18
   fresh pairs go 3 plain resubmissions (verdict-cache reads) and 3
   fresh:true resubmissions (re-runs against the warm resident store),
   each of a pair among the last 6 fresh ones.  A closed-loop client
   therefore only ever resubmits a pair whose verdict it already holds,
   and a resubmitted pair is still cached: the caches keep the last 256
   entries. *)
let resubmits_per_round = 3
let recent_window = 6

let request ~id ~fresh (p : pair) =
  Jsonv.to_string
    (Jsonv.Obj
       ([
          ("method", Jsonv.Str "submit");
          ("id", Jsonv.Str id);
          ("left", Jsonv.Str p.left);
          ("right", Jsonv.Str p.right);
          ("timeout", Jsonv.Num check_timeout);
        ]
       @ if fresh then [ ("fresh", Jsonv.Bool true) ] else []))

let schedule ~seed rounds =
  let rng = Rng.make ~seed:(seed + 104729) in
  let recent = ref [] and next = ref 0 in
  List.mapi
    (fun r rnd ->
      let fresh = Array.of_list rnd in
      let n = Array.length fresh in
      (* slot i >= 2 gets the resubmissions drawn for it, after fresh i *)
      let extra = Array.make n [] in
      List.iter
        (fun mode ->
          for _ = 1 to resubmits_per_round do
            let i = 2 + Rng.int rng (n - 2) in
            extra.(i) <- (mode, Rng.int rng recent_window) :: extra.(i)
          done)
        [ "cached"; "refresh" ];
      let reqs = ref [] in
      let add mode (p : pair) =
        let id = Printf.sprintf "r%d" !next in
        incr next;
        reqs := (r, mode, p, request ~id ~fresh:(mode = "refresh") p) :: !reqs
      in
      Array.iteri
        (fun i p ->
          add "fresh" p;
          recent := p :: !recent;
          List.iter
            (fun (mode, k) ->
              let window = List.filteri (fun j _ -> j < recent_window) !recent in
              add mode (List.nth window (k mod List.length window)))
            (List.rev extra.(i)))
        fresh;
      List.rev !reqs)
    rounds
  |> List.concat

let serve_gen ~seed ~seconds ~trace file =
  let rounds = rounds_for ~seconds ~round_s:1.0 in
  let times, pairs =
    build_setup (fun () -> draw Compiled compiled_families ~seed ~rounds)
  in
  let reqs = schedule ~seed pairs in
  let oc = open_out_bin file in
  List.iter
    (fun (r, mode, p, req) ->
      output_string oc
        (Jsonv.to_string
           (Jsonv.Obj
              [
                ("round", int r);
                ("mode", Jsonv.Str mode);
                ("id", int p.id);
                ("family", Jsonv.Str (Printf.sprintf "%s-%d" p.family p.variant));
                ("kind", Jsonv.Str (kind_name p.kind));
                ("request", Jsonv.Str req);
              ]));
      output_char oc '\n')
    reqs;
  close_out oc;
  (* Client-side layer timings, outside the daemon: parse and align of
     every fresh pair, decode of every request line. *)
  let layers =
    if not trace then []
    else begin
      let parse = ref 0.0 and align = ref 0.0 and decode = ref 0.0 and bytes = ref 0 in
      let fresh = List.concat pairs in
      List.iter
        (fun p ->
          let a, b =
            timed parse (fun () -> (Qasm.circuit_of_string p.left, Qasm.circuit_of_string p.right))
          in
          bytes := !bytes + String.length p.left + String.length p.right;
          timed align (fun () ->
              let a', b' = Flatten.align a b in
              ignore (Sys.opaque_identity (Flatten.flatten a', Flatten.flatten b'))))
        fresh;
      List.iter
        (fun (_, _, _, req) ->
          match timed decode (fun () -> Oqec_serve.Protocol.parse_request req) with
          | Ok _ -> ()
          | Error (code, msg) -> failwith (code ^ ": " ^ msg))
        reqs;
      [
        ("parse_ns", ns !parse);
        ("bytes", int !bytes);
        ("align_ns", ns !align);
        ("decode_ns", ns !decode);
        ("requests", int (List.length reqs));
      ]
    end
  in
  line
    ([
       ("type", Jsonv.Str "setup");
       ("setup_ns", Jsonv.Arr (List.map ns times));
       ("limit_ns", ns check_timeout);
       ("rounds", int rounds);
       ("route_ns", ns !route_s);
       ("optimize_ns", ns !optimize_s);
       ("pairs", int (List.length (List.concat pairs)));
     ]
    @ layers)

(* ------------------------------------------------------ host reference *)

(* Fixed reference work timed at the start and end of every run, in its
   own process: a register-only loop and a random walk over a 64 MiB
   array.  The host's speed drifts mostly for memory-bound work, which
   is what the checkers do, so the walk is the more telling of the two.
   A diagnostic only, never a metric. *)
let hostref () =
  let t0 = Mclock.now () in
  let acc = ref 0 in
  for i = 1 to 50_000_000 do
    acc := ((!acc * 31) + i) land 0xFFFFFF
  done;
  ignore (Sys.opaque_identity !acc);
  let t1 = Mclock.now () in
  let n = 1 lsl 23 in
  let a = Array.make n 0 in
  let t2 = Mclock.now () in
  let x = ref 1 in
  (* an LCG over the array's indices: each load misses the caches *)
  for _ = 1 to 1_000_000 do
    x := (a.(!x land (n - 1)) + (!x * 1103515245) + 12345) land 0x3FFFFFFF
  done;
  ignore (Sys.opaque_identity !x);
  let t3 = Mclock.now () in
  line [ ("type", Jsonv.Str "hostref"); ("cpu_ns", ns (t1 -. t0)); ("mem_ns", ns (t3 -. t2)) ]

(* ---------------------------------------------------------------- main *)

let () =
  let usage () =
    prerr_endline
      "usage: oqec_perfbench.exe oneshot WORKLOAD SEED SECONDS TRACE\n\
      \       oqec_perfbench.exe serve-gen SEED SECONDS TRACE FILE\n\
      \       oqec_perfbench.exe hostref";
    exit 2
  in
  let trace_of = function "0" -> false | "1" -> true | _ -> usage () in
  match Array.to_list Sys.argv with
  | [ _; "oneshot"; w; seed; seconds; trace ] ->
      oneshot w ~seed:(int_of_string seed) ~seconds:(float_of_string seconds)
        ~trace:(trace_of trace)
  | [ _; "hostref" ] -> hostref ()
  | [ _; "serve-gen"; seed; seconds; trace; file ] ->
      serve_gen ~seed:(int_of_string seed) ~seconds:(float_of_string seconds)
        ~trace:(trace_of trace) file
  | _ -> usage ()
