(* Resident DD store for the checker service: one session per worker
   domain, owning one package that persists across requests.  Reuse is
   what makes a warm check cheaper than a cold one — the unique table
   keeps previously interned gate and sub-circuit DDs canonical, and the
   compute caches keep memoised products — while the epoch sweep bounds
   residency: when the live node count crosses the high-water mark at a
   request boundary, every external root left behind by finished
   requests is dropped and a collection reclaims all nodes unreachable
   from the identity spine.

   The package is created on first use, not with the session, so that a
   service pays for no arena before its first check.

   A session is single-owner by design: packages are not thread-safe,
   so the scheduler hands each worker its own session and never shares
   one across domains. *)

type t = {
  tol : float option;
  gc_threshold : int option;
  high_water : int;
  mutable pkg : Dd.pkg option;
  mutable epoch : int;
  mutable sweeps : int;
  mutable evicted_nodes : int;
}

(* Default residency bound: a quarter-million live nodes (~4x the
   default gc threshold) before an epoch sweep fires. *)
let default_high_water = 1 lsl 18

let create ?tol ?gc_threshold ?(high_water = default_high_water) () =
  { tol; gc_threshold; high_water; pkg = None; epoch = 0; sweeps = 0; evicted_nodes = 0 }

let pkg t =
  match t.pkg with
  | Some p -> p
  | None ->
      let p = Dd.create ?tol:t.tol ?gc_threshold:t.gc_threshold () in
      t.pkg <- Some p;
      p

let live t = match t.pkg with Some p -> Dd.live p | None -> 0

(* Request boundary: bump the epoch and, past the high-water mark,
   clear the roots the finished requests left pinned and collect.
   Returns the number of nodes evicted (0 while under the mark). *)
let end_epoch t =
  t.epoch <- t.epoch + 1;
  let evicted =
    match t.pkg with
    | Some p when Dd.live p > t.high_water ->
        Dd.clear_roots p;
        Dd.gc p
    | _ -> 0
  in
  if evicted > 0 then t.sweeps <- t.sweeps + 1;
  t.evicted_nodes <- t.evicted_nodes + evicted;
  evicted

let epoch t = t.epoch
let sweeps t = t.sweeps
let evicted_nodes t = t.evicted_nodes
let high_water t = t.high_water

let counters t =
  [
    ("server.dd.epoch", t.epoch);
    ("server.dd.evicted_nodes", t.evicted_nodes);
    ("server.dd.resident_nodes", live t);
    ("server.dd.sweeps", t.sweeps);
  ]
