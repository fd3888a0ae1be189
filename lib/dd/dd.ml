open Oqec_base

(* The QMDD package, stored as an int-indexed struct-of-arrays arena.

   Layout (see DESIGN.md, "DD package"):

   - An {e edge} is one immediate integer, [node_id lor (weight_id lsl
     32)].  Weight ids come from {!Wtable}, which pins id 0 to zero and
     id 1 to one, so the zero edge is [0] and the scalar-one edge is
     [1 lsl 32] — compile-time constants, invisible to the OCaml GC.
   - Node columns are Bigarrays indexed by node id: [var] (int16 level),
     [kids] (4 packed edges per node; vector nodes park [-1] sentinels
     in slots 2 and 3 so they can never collide with matrix nodes in the
     unique table), [next] (unique-table chain link) and [mark] (GC mark
     byte).  Node id 0 is the terminal.
   - The unique table is sharded by hash: each shard owns a bucket
     array and an entry count.  Chains thread through the shared [next]
     column (every node lives in exactly one shard).  A package is
     single-owner: one domain conses into it, so nothing is locked.
   - Compute caches are direct-mapped parallel int arrays — probing
     allocates nothing.

   GC is a pinned-root compaction pass: rooted nodes never move (client
   edges stay valid across safe points), dead nodes free their slots,
   and surviving interior nodes slide down into the holes with every kid
   pointer, the identity cache and the unique table rebuilt to match.
   An {e unrooted} edge held across a collection must not be used
   again: its slot may have been reassigned. *)

type edge = int

let nid (e : edge) = e land 0xFFFFFFFF
let wid (e : edge) = e lsr 32
let pack n w : edge = n lor (w lsl 32)
let zero_edge : edge = 0
let one_edge : edge = pack 0 Wtable.one_id
let is_zero_edge (e : edge) = e = 0
let is_terminal_id n = n = 0

type int_col = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t
type i16_col = (int, Bigarray.int16_signed_elt, Bigarray.c_layout) Bigarray.Array1.t
type i8_col = (int, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

let int_col n : int_col = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n
let i16_col n : i16_col = Bigarray.Array1.create Bigarray.int16_signed Bigarray.c_layout n
let i8_col n : i8_col = Bigarray.Array1.create Bigarray.int8_unsigned Bigarray.c_layout n

(* Sentinel parked in the kid slots a vector node does not use. *)
let no_kid = -1

type shard = {
  mutable buckets : int_col;  (* head node id per bucket; 0 = empty *)
  mutable bmask : int;
  mutable count : int;
  mutable bresizes : int;
}

type arena = {
  w : Wtable.t;
  shards : shard array;
  shard_mask : int;
  mutable cap : int;
  mutable next_free : int;  (* bump allocator: next unused slot *)
  (* Dead slots left behind by the last compaction that the slide could
     not fill (pinned roots sit above them and the bump pointer cannot
     come back down past a pinned slot).  Reusing them is safe exactly
     because compaction clears the compute caches and rebuilds the
     unique table: no stale reference to a freed id survives the
     collection that freed it. *)
  mutable free_slots : int list;
  mutable live : int;
  mutable allocated : int;  (* nodes ever consed; monotonic *)
  mutable var_c : i16_col;
  mutable kids : int_col;  (* 4 packed edges per node *)
  mutable next_c : int_col;
  mutable mark_c : i8_col;
  mutable resizes : int;
  mutable compactions : int;
}

(* ------------------------------------------------- direct-mapped caches *)

type cache_stats = {
  capacity : int;
  s_filled : int;
  s_hits : int;
  s_misses : int;
  s_overwrites : int;
}

let hit_rate s =
  let lookups = s.s_hits + s.s_misses in
  if lookups = 0 then 0.0 else float_of_int s.s_hits /. float_of_int lookups

(* Keys and values are immediate ints, stored in parallel arrays; a slot
   is empty while its value is [min_int] (no packed edge or interned
   weight id is ever negative). *)
type icache = {
  k1 : int array;
  k2 : int array;
  k3 : int array;
  v : int array;
  cmask : int;
  mutable hits : int;
  mutable misses : int;
  mutable overwrites : int;
  mutable filled : int;
}

let icache_create bits =
  let n = 1 lsl bits in
  {
    k1 = Array.make n 0;
    k2 = Array.make n 0;
    k3 = Array.make n 0;
    v = Array.make n min_int;
    cmask = n - 1;
    hits = 0;
    misses = 0;
    overwrites = 0;
    filled = 0;
  }

let icache_clear c =
  Array.fill c.v 0 (Array.length c.v) min_int;
  c.filled <- 0

(* Multiplicative mixing over native ints; the constants fit in 62 bits. *)
let mix h k =
  let h = (h lxor k) * 0x2545F4914F6CDD1D in
  h lxor (h lsr 29)

let hash3 a b c = mix (mix (mix 0x9E3779B9 a) b) c land max_int

let icache_find c h k1 k2 k3 =
  let i = h land c.cmask in
  if c.v.(i) <> min_int && c.k1.(i) = k1 && c.k2.(i) = k2 && c.k3.(i) = k3 then begin
    c.hits <- c.hits + 1;
    c.v.(i)
  end
  else begin
    c.misses <- c.misses + 1;
    min_int
  end

let icache_store c h k1 k2 k3 value =
  let i = h land c.cmask in
  if c.v.(i) = min_int then c.filled <- c.filled + 1
  else if not (c.k1.(i) = k1 && c.k2.(i) = k2 && c.k3.(i) = k3) then
    c.overwrites <- c.overwrites + 1;
  c.k1.(i) <- k1;
  c.k2.(i) <- k2;
  c.k3.(i) <- k3;
  c.v.(i) <- value

let icache_stats c =
  {
    capacity = c.cmask + 1;
    s_filled = c.filled;
    s_hits = c.hits;
    s_misses = c.misses;
    s_overwrites = c.overwrites;
  }

(* --------------------------------------------------------------- package *)

type pkg = {
  a : arena;
  mm_cache : icache;
  mv_cache : icache;
  add_cache : icache;
  adj_cache : icache;
  inner_cache : icache;
  roots : (int, int) Hashtbl.t;  (* node id -> registration count *)
  id_cache : (int, edge) Hashtbl.t;  (* qubit count -> identity edge *)
  gc_threshold : int;
  mutable gc_limit : int;
  mutable gc_runs : int;
  mutable gc_reclaimed : int;
  mutable peak_live : int;
  mutable safe_point_hook : unit -> unit;
}

let default_gc_threshold = 65536
let default_cache_bits = 14
let default_shard_bits = 3
let default_capacity = 1 lsl 16

let make_arena ~tol ~shard_bits ~capacity =
  let nshards = 1 lsl shard_bits in
  let shard () =
    let b = int_col 1024 in
    Bigarray.Array1.fill b 0;
    { buckets = b; bmask = 1023; count = 0; bresizes = 0 }
  in
  let a =
    {
      w = Wtable.create ~tol ();
      shards = Array.init nshards (fun _ -> shard ());
      shard_mask = nshards - 1;
      cap = capacity;
      next_free = 1;
      free_slots = [];
      live = 0;
      allocated = 0;
      var_c = i16_col capacity;
      kids = int_col (4 * capacity);
      next_c = int_col capacity;
      mark_c = i8_col capacity;
      resizes = 0;
      compactions = 0;
    }
  in
  a.var_c.{0} <- -1;
  Bigarray.Array1.fill a.mark_c 0;
  a

let create ?(tol = Cx.default_tolerance) ?(gc_threshold = default_gc_threshold)
    ?(cache_bits = default_cache_bits) ?(shard_bits = default_shard_bits)
    ?(capacity = default_capacity) () =
  if gc_threshold < 0 then invalid_arg "Dd.create: gc_threshold must be >= 0";
  {
    a = make_arena ~tol ~shard_bits ~capacity:(max 16 capacity);
    mm_cache = icache_create cache_bits;
    mv_cache = icache_create cache_bits;
    add_cache = icache_create cache_bits;
    adj_cache = icache_create (min cache_bits 10);
    inner_cache = icache_create (min cache_bits 10);
    roots = Hashtbl.create 64;
    id_cache = Hashtbl.create 8;
    gc_threshold;
    gc_limit = gc_threshold;
    gc_runs = 0;
    gc_reclaimed = 0;
    peak_live = 0;
    safe_point_hook = ignore;
  }

let on_safe_point pkg f = pkg.safe_point_hook <- f
let at_safe_point_hook pkg = pkg.safe_point_hook ()
let weight pkg (e : edge) = Wtable.get pkg.a.w (wid e)

let wmag2 a w =
  let re = Wtable.re a.w w and im = Wtable.im a.w w in
  (re *. re) +. (im *. im)

(* ------------------------------------------------------------ allocation *)

let grow_arena a ~need =
  let cap = ref a.cap in
  while need > !cap do
    cap := 2 * !cap
  done;
  let cap = !cap in
  let var_c = i16_col cap
  and kids = int_col (4 * cap)
  and next_c = int_col cap
  and mark_c = i8_col cap in
  let blit src dst len sub_len =
    Bigarray.Array1.blit
      (Bigarray.Array1.sub src 0 (len * sub_len))
      (Bigarray.Array1.sub dst 0 (len * sub_len))
  in
  blit a.var_c var_c a.cap 1;
  blit a.kids kids a.cap 4;
  blit a.next_c next_c a.cap 1;
  Bigarray.Array1.fill mark_c 0;
  a.var_c <- var_c;
  a.kids <- kids;
  a.next_c <- next_c;
  a.mark_c <- mark_c;
  a.cap <- cap;
  a.resizes <- a.resizes + 1

let alloc_slot a =
  match a.free_slots with
  | idx :: rest ->
      a.free_slots <- rest;
      idx
  | [] ->
      let idx = a.next_free in
      a.next_free <- idx + 1;
      if idx >= a.cap then grow_arena a ~need:(idx + 1);
      idx

(* ------------------------------------------------------------ hash-consing *)

let edge_of pkg ~w n : edge =
  let id = Wtable.intern pkg.a.w w in
  if id = Wtable.zero_id then zero_edge else pack n id

let scale pkg z (e : edge) =
  if is_zero_edge e then zero_edge
  else edge_of pkg ~w:(Cx.mul z (weight pkg e)) (nid e)

let node_hash a i =
  let base = 4 * i in
  let h = mix 0x9E3779B9 a.var_c.{i} in
  let h = mix h a.kids.{base} in
  let h = mix h a.kids.{base + 1} in
  let h = mix h a.kids.{base + 2} in
  mix h a.kids.{base + 3} land max_int

let key_hash var k0 k1 k2 k3 =
  mix (mix (mix (mix (mix 0x9E3779B9 var) k0) k1) k2) k3 land max_int

let shard_of a h = a.shards.(h land a.shard_mask)
let bucket_index h bmask = (h lsr 8) land bmask

let shard_insert a s h i =
  a.next_c.{i} <- s.buckets.{bucket_index h s.bmask};
  s.buckets.{bucket_index h s.bmask} <- i;
  s.count <- s.count + 1;
  if s.count > 2 * (s.bmask + 1) then begin
    (* Double this shard's bucket array and redistribute its chains. *)
    let nmask = (2 * (s.bmask + 1)) - 1 in
    let nb = int_col (nmask + 1) in
    Bigarray.Array1.fill nb 0;
    for b = 0 to s.bmask do
      let node = ref s.buckets.{b} in
      while !node <> 0 do
        let next = a.next_c.{!node} in
        let h = node_hash a !node in
        let nbi = bucket_index h nmask in
        a.next_c.{!node} <- nb.{nbi};
        nb.{nbi} <- !node;
        node := next
      done
    done;
    s.buckets <- nb;
    s.bmask <- nmask;
    s.bresizes <- s.bresizes + 1
  end

(* Find-or-cons the already-normalised kid quadruple. *)
let cons pkg var k0 k1 k2 k3 =
  let a = pkg.a in
  let h = key_hash var k0 k1 k2 k3 in
  let s = shard_of a h in
  let found = ref 0 in
  let i = ref s.buckets.{bucket_index h s.bmask} in
  while !found = 0 && !i <> 0 do
    let n = !i in
    let base = 4 * n in
    if
      a.var_c.{n} = var
      && a.kids.{base} = k0
      && a.kids.{base + 1} = k1
      && a.kids.{base + 2} = k2
      && a.kids.{base + 3} = k3
    then found := n
    else i := a.next_c.{n}
  done;
  let node =
    if !found <> 0 then !found
    else begin
      let n = alloc_slot a in
      let base = 4 * n in
      a.var_c.{n} <- var;
      a.kids.{base} <- k0;
      a.kids.{base + 1} <- k1;
      a.kids.{base + 2} <- k2;
      a.kids.{base + 3} <- k3;
      shard_insert a s h n;
      a.allocated <- a.allocated + 1;
      a.live <- a.live + 1;
      if a.live > pkg.peak_live then pkg.peak_live <- a.live;
      n
    end
  in
  node

(* Normalising constructor: the first edge of maximal magnitude carries
   weight one, its weight is extracted onto the returned edge, so that
   equal-up-to-scalar sub-matrices share a node. *)
let make_node pkg var (edges : edge array) : edge =
  assert (var >= 0);
  let a = pkg.a in
  let width = Array.length edges in
  let best = ref (-1) and best_mag = ref 0.0 in
  for i = 0 to width - 1 do
    let e = edges.(i) in
    if not (is_zero_edge e) then begin
      let m = wmag2 a (wid e) in
      if m > !best_mag then begin
        best := i;
        best_mag := m
      end
    end
  done;
  if !best < 0 then zero_edge
  else begin
    let top = Wtable.get a.w (wid edges.(!best)) in
    let normalise i =
      let e = edges.(i) in
      if is_zero_edge e then zero_edge
      else if i = !best then pack (nid e) Wtable.one_id
      else edge_of pkg ~w:(Cx.div (weight pkg e) top) (nid e)
    in
    let k0 = normalise 0 and k1 = normalise 1 in
    let k2 = if width > 2 then normalise 2 else no_kid
    and k3 = if width > 2 then normalise 3 else no_kid in
    let n = cons pkg var k0 k1 k2 k3 in
    edge_of pkg ~w:top n
  end

(* ------------------------------------------------------------- structure *)

let var_of pkg n = pkg.a.var_c.{n}
let kid pkg n i = pkg.a.kids.{(4 * n) + i}
let is_vector_node pkg n = kid pkg n 2 = no_kid
let node_id (e : edge) = nid e
let level pkg (e : edge) = var_of pkg (nid e)

let children pkg (e : edge) =
  let n = nid e in
  if is_terminal_id n then [||]
  else if is_vector_node pkg n then [| kid pkg n 0; kid pkg n 1 |]
  else Array.init 4 (kid pkg n)
let live pkg = pkg.a.live
let allocated pkg = pkg.a.allocated

let root pkg (e : edge) =
  let n = nid e in
  if not (is_terminal_id n) then
    match Hashtbl.find_opt pkg.roots n with
    | Some c -> Hashtbl.replace pkg.roots n (c + 1)
    | None -> Hashtbl.replace pkg.roots n 1

let unroot pkg (e : edge) =
  let n = nid e in
  if not (is_terminal_id n) then
    match Hashtbl.find_opt pkg.roots n with
    | Some c when c > 1 -> Hashtbl.replace pkg.roots n (c - 1)
    | Some _ -> Hashtbl.remove pkg.roots n
    | None -> ()

(* Drop every external root registration at once (epoch sweep of the
   resident session store); the identity cache remains a mark root and
   is remapped by compaction as usual. *)
let clear_roots pkg = Hashtbl.reset pkg.roots

let clear_caches pkg =
  icache_clear pkg.mm_cache;
  icache_clear pkg.mv_cache;
  icache_clear pkg.add_cache;
  icache_clear pkg.adj_cache;
  icache_clear pkg.inner_cache

(* Memoised per package: the identity chain is rebuilt by every
   [is_identity] probe of the checker hot loop otherwise.  The cached
   edges double as GC roots through the marking pass below. *)
let identity pkg n =
  match Hashtbl.find_opt pkg.id_cache n with
  | Some e -> e
  | None ->
      let rec build v acc =
        if v >= n then acc
        else build (v + 1) (make_node pkg v [| acc; zero_edge; zero_edge; acc |])
      in
      let e = build 0 one_edge in
      Hashtbl.replace pkg.id_cache n e;
      e

let is_identity ?(up_to_phase = true) pkg n e =
  let id = identity pkg n in
  nid e = nid id
  &&
  let m = Cx.mag (weight pkg e) in
  if up_to_phase then Float.abs (m -. 1.0) <= 1e-8
  else Cx.approx_equal ~tol:1e-8 (weight pkg e) Cx.one

(* --------------------------------------------------------------------- GC *)

(* Pinned-root compaction.  Phases:
   1. mark everything reachable from the registered roots and the
      memoised identities (iterative, explicit stack);
   2. slide surviving unpinned nodes from the top of the arena into the
      lowest dead slots (rooted nodes are pinned: client-held edges keep
      their ids);
   3. remap every kid pointer and identity-cache entry, rebuild the
      unique table chains, drop the compute caches. *)
let gc pkg =
  let a = pkg.a in
  let top = a.next_free in
  let before = a.live in
  (* 1. mark *)
  let stack = ref [] in
  let push_edge e = if not (is_terminal_id (nid e)) then stack := nid e :: !stack in
  Hashtbl.iter (fun n _ -> stack := n :: !stack) pkg.roots;
  Hashtbl.iter (fun _ e -> push_edge e) pkg.id_cache;
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | n :: rest ->
        stack := rest;
        if a.mark_c.{n} = 0 then begin
          a.mark_c.{n} <- 1;
          let base = 4 * n in
          for j = 0 to 3 do
            let k = a.kids.{base + j} in
            if k <> no_kid && not (is_zero_edge k) then begin
              let kn = nid k in
              if not (is_terminal_id kn) && a.mark_c.{kn} = 0 then stack := kn :: !stack
            end
          done
        end
  done;
  (* 2. compact: two-finger, dead slots collected bottom-up, survivors
     moved top-down.  Pinned (rooted) nodes never move. *)
  let deads = ref [] and ndead = ref 0 in
  for i = top - 1 downto 1 do
    if a.mark_c.{i} = 0 then begin
      deads := i :: !deads;
      incr ndead
    end
  done;
  let remap = Hashtbl.create (max 64 (!ndead / 4)) in
  let rec move i deads =
    if i >= 1 then
      match deads with
      | f :: rest when f < i ->
          if a.mark_c.{i} = 1 && not (Hashtbl.mem pkg.roots i) then begin
            a.var_c.{f} <- a.var_c.{i};
            let bi = 4 * i and bf = 4 * f in
            for j = 0 to 3 do
              a.kids.{bf + j} <- a.kids.{bi + j}
            done;
            a.mark_c.{f} <- 1;
            a.mark_c.{i} <- 0;
            Hashtbl.replace remap i f;
            move (i - 1) rest
          end
          else move (i - 1) deads
      | _ -> ()
  in
  move (top - 1) !deads;
  let new_top = ref 0 in
  for i = 1 to top - 1 do
    if a.mark_c.{i} = 1 then new_top := i
  done;
  let remap_edge e =
    if is_zero_edge e || e = no_kid then e
    else
      let n = nid e in
      match Hashtbl.find_opt remap n with
      | Some f -> pack f (wid e)
      | None -> e
  in
  (* 3. remap kids + identity cache, rebuild the unique table. *)
  for i = 1 to !new_top do
    if a.mark_c.{i} = 1 then begin
      let base = 4 * i in
      for j = 0 to 3 do
        a.kids.{base + j} <- remap_edge a.kids.{base + j}
      done
    end
  done;
  let ids = Hashtbl.fold (fun k e acc -> (k, remap_edge e) :: acc) pkg.id_cache [] in
  Hashtbl.reset pkg.id_cache;
  List.iter (fun (k, e) -> Hashtbl.replace pkg.id_cache k e) ids;
  Array.iter
    (fun s ->
      Bigarray.Array1.fill s.buckets 0;
      s.count <- 0)
    a.shards;
  let after = ref 0 in
  for i = 1 to !new_top do
    if a.mark_c.{i} = 1 then begin
      incr after;
      let h = node_hash a i in
      let s = shard_of a h in
      shard_insert a s h i
    end
  done;
  (* Dead slots below the highest survivor that the slide could not
     fill (they sit under pinned roots): hand them to the allocator,
     or the bump pointer — which can never come back down past a
     pinned slot — leaks them and the arena grows without bound on
     long runs. *)
  let fl = ref [] in
  for i = !new_top - 1 downto 1 do
    if a.mark_c.{i} = 0 then fl := i :: !fl
  done;
  a.free_slots <- !fl;
  Bigarray.Array1.fill (Bigarray.Array1.sub a.mark_c 0 top) 0;
  a.next_free <- !new_top + 1;
  a.live <- !after;
  a.compactions <- a.compactions + 1;
  pkg.gc_runs <- pkg.gc_runs + 1;
  pkg.gc_reclaimed <- pkg.gc_reclaimed + (before - !after);
  clear_caches pkg;
  if pkg.gc_threshold > 0 && !after > pkg.gc_limit * 3 / 4 then
    pkg.gc_limit <- pkg.gc_limit * 2;
  before - !after

let maybe_gc pkg = if live pkg >= pkg.gc_limit then ignore (gc pkg)

(* ------------------------------------------------------------ arithmetic *)

(* Compute-cache keys are integer triples: the operand node ids plus a
   per-operation constant, except for addition, whose third key is the
   interned ratio of the operand weights. *)

let rec add pkg (e1 : edge) (e2 : edge) : edge =
  if is_zero_edge e1 then e2
  else if is_zero_edge e2 then e1
  else if nid e1 = nid e2 then
    edge_of pkg ~w:(Cx.add (weight pkg e1) (weight pkg e2)) (nid e1)
  else begin
    let e1, e2 = if nid e1 <= nid e2 then (e1, e2) else (e2, e1) in
    let ratio = Cx.div (weight pkg e2) (weight pkg e1) in
    let rw = Wtable.intern pkg.a.w ratio in
    let ratio = Wtable.get pkg.a.w rw in
    let n1 = nid e1 and n2 = nid e2 in
    let h = hash3 n1 n2 rw in
    let cached = icache_find pkg.add_cache h n1 n2 rw in
    let base =
      if cached <> min_int then cached
      else begin
        let r =
          if is_terminal_id n1 then begin
            assert (is_terminal_id n2);
            edge_of pkg ~w:(Cx.add Cx.one ratio) 0
          end
          else begin
            let v = max (var_of pkg n1) (var_of pkg n2) in
            let vector = is_vector_node pkg n1 in
            let c2 j =
              let k = kid pkg n2 j in
              if is_zero_edge k then zero_edge
              else edge_of pkg ~w:(Cx.mul ratio (weight pkg k)) (nid k)
            in
            if vector then
              make_node pkg v
                [| add pkg (kid pkg n1 0) (c2 0); add pkg (kid pkg n1 1) (c2 1) |]
            else
              make_node pkg v
                [|
                  add pkg (kid pkg n1 0) (c2 0);
                  add pkg (kid pkg n1 1) (c2 1);
                  add pkg (kid pkg n1 2) (c2 2);
                  add pkg (kid pkg n1 3) (c2 3);
                |]
          end
        in
        icache_store pkg.add_cache h n1 n2 rw r;
        r
      end
    in
    scale pkg (weight pkg e1) base
  end

let rec mul pkg (e1 : edge) (e2 : edge) : edge =
  if is_zero_edge e1 || is_zero_edge e2 then zero_edge
  else begin
    let n1 = nid e1 and n2 = nid e2 in
    if is_terminal_id n1 && is_terminal_id n2 then
      edge_of pkg ~w:(Cx.mul (weight pkg e1) (weight pkg e2)) 0
    else begin
      assert (var_of pkg n1 = var_of pkg n2);
      let v = var_of pkg n1 in
      let h = hash3 n1 n2 0 in
      let cached = icache_find pkg.mm_cache h n1 n2 0 in
      let base =
        if cached <> min_int then cached
        else begin
          let a i = kid pkg n1 i and b j = kid pkg n2 j in
          let entry i j =
            add pkg
              (mul pkg (a ((2 * i) + 0)) (b ((2 * 0) + j)))
              (mul pkg (a ((2 * i) + 1)) (b ((2 * 1) + j)))
          in
          let r = make_node pkg v [| entry 0 0; entry 0 1; entry 1 0; entry 1 1 |] in
          icache_store pkg.mm_cache h n1 n2 0 r;
          r
        end
      in
      scale pkg (Cx.mul (weight pkg e1) (weight pkg e2)) base
    end
  end

let rec mul_vec pkg (m : edge) (x : edge) : edge =
  if is_zero_edge m || is_zero_edge x then zero_edge
  else begin
    let nm = nid m and nx = nid x in
    if is_terminal_id nm && is_terminal_id nx then
      edge_of pkg ~w:(Cx.mul (weight pkg m) (weight pkg x)) 0
    else begin
      assert (var_of pkg nm = var_of pkg nx);
      let lvl = var_of pkg nm in
      let h = hash3 nm nx 1 in
      let cached = icache_find pkg.mv_cache h nm nx 1 in
      let base =
        if cached <> min_int then cached
        else begin
          let a i = kid pkg nm i and v j = kid pkg nx j in
          let entry i =
            add pkg (mul_vec pkg (a ((2 * i) + 0)) (v 0)) (mul_vec pkg (a ((2 * i) + 1)) (v 1))
          in
          let r = make_node pkg lvl [| entry 0; entry 1 |] in
          icache_store pkg.mv_cache h nm nx 1 r;
          r
        end
      in
      scale pkg (Cx.mul (weight pkg m) (weight pkg x)) base
    end
  end

let rec adjoint pkg (e : edge) : edge =
  if is_zero_edge e then zero_edge
  else if is_terminal_id (nid e) then edge_of pkg ~w:(Cx.conj (weight pkg e)) 0
  else begin
    let n = nid e in
    let h = hash3 n 0 2 in
    let cached = icache_find pkg.adj_cache h n 0 2 in
    let base =
      if cached <> min_int then cached
      else begin
        let v = var_of pkg n in
        let c i = kid pkg n i in
        let r =
          make_node pkg v
            [| adjoint pkg (c 0); adjoint pkg (c 2); adjoint pkg (c 1); adjoint pkg (c 3) |]
        in
        icache_store pkg.adj_cache h n 0 2 r;
        r
      end
    in
    scale pkg (Cx.conj (weight pkg e)) base
  end

let rec inner pkg (e1 : edge) (e2 : edge) : Cx.t =
  if is_zero_edge e1 || is_zero_edge e2 then Cx.zero
  else begin
    let n1 = nid e1 and n2 = nid e2 in
    if is_terminal_id n1 && is_terminal_id n2 then
      Cx.mul (Cx.conj (weight pkg e1)) (weight pkg e2)
    else begin
      assert (var_of pkg n1 = var_of pkg n2);
      let h = hash3 n1 n2 3 in
      let cached = icache_find pkg.inner_cache h n1 n2 3 in
      let base_wid =
        if cached <> min_int then cached
        else begin
          let a i = kid pkg n1 i and b j = kid pkg n2 j in
          let r = Cx.add (inner pkg (a 0) (b 0)) (inner pkg (a 1) (b 1)) in
          let rw = Wtable.intern pkg.a.w r in
          icache_store pkg.inner_cache h n1 n2 3 rw;
          rw
        end
      in
      Cx.mul
        (Cx.mul (Cx.conj (weight pkg e1)) (weight pkg e2))
        (Wtable.get pkg.a.w base_wid)
    end
  end

let kets_bits pkg n bit =
  let rec build v acc =
    if v >= n then acc
    else
      let edges = if bit v then [| zero_edge; acc |] else [| acc; zero_edge |] in
      build (v + 1) (make_node pkg v edges)
  in
  build 0 one_edge

let kets pkg n i = kets_bits pkg n (fun v -> (i lsr v) land 1 = 1)

(* [tr D] sums the two diagonal cofactor traces per node, memoised on
   the node id: sharing makes the walk linear in the number of distinct
   nodes rather than exponential in the qubit count.  An edge's weight
   multiplies the trace of the node below it; the terminal contributes
   one. *)
let trace pkg (e : edge) =
  let cache : (int, Cx.t) Hashtbl.t = Hashtbl.create 256 in
  let rec node_trace n =
    if is_terminal_id n then Cx.one
    else
      match Hashtbl.find_opt cache n with
      | Some t -> t
      | None ->
          let sub c =
            if is_zero_edge c then Cx.zero else Cx.mul (weight pkg c) (node_trace (nid c))
          in
          let t = Cx.add (sub (kid pkg n 0)) (sub (kid pkg n 3)) in
          Hashtbl.replace cache n t;
          t
  in
  if is_zero_edge e then Cx.zero else Cx.mul (weight pkg e) (node_trace (nid e))

(* Computed in floats: [2^n] overflows native integers beyond 62 qubits
   (the Manhattan register has 65). *)
let fidelity_to_identity pkg ~n e = Cx.mag (trace pkg e) /. Float.pow 2.0 (float_of_int n)

(* ------------------------------------------------------------ diagnostics *)

let node_count pkg (e : edge) =
  let seen = Hashtbl.create 256 in
  let rec visit n =
    if (not (is_terminal_id n)) && not (Hashtbl.mem seen n) then begin
      Hashtbl.replace seen n ();
      for j = 0 to 3 do
        let k = kid pkg n j in
        if k <> no_kid && not (is_zero_edge k) then visit (nid k)
      done
    end
  in
  visit (nid e);
  Hashtbl.length seen

type arena_stats = {
  a_capacity : int;
  a_occupancy : int;
  a_resizes : int;
  a_compactions : int;
  a_shards : int;
  a_shard_resizes : int;
}

type stats = {
  allocated : int;
  live : int;
  peak_live : int;
  gc_runs : int;
  gc_reclaimed : int;
  mm : cache_stats;
  mv : cache_stats;
  add_ : cache_stats;
  adj : cache_stats;
  inner_ : cache_stats;
  weights : int;
  arena : arena_stats;
}

let arena_stats pkg =
  let a = pkg.a in
  let bresizes = Array.fold_left (fun acc s -> acc + s.bresizes) 0 a.shards in
  {
    a_capacity = a.cap;
    a_occupancy = a.live;
    a_resizes = a.resizes;
    a_compactions = a.compactions;
    a_shards = Array.length a.shards;
    a_shard_resizes = bresizes;
  }

let stats pkg =
  {
    allocated = allocated pkg;
    live = live pkg;
    peak_live = pkg.peak_live;
    gc_runs = pkg.gc_runs;
    gc_reclaimed = pkg.gc_reclaimed;
    mm = icache_stats pkg.mm_cache;
    mv = icache_stats pkg.mv_cache;
    add_ = icache_stats pkg.add_cache;
    adj = icache_stats pkg.adj_cache;
    inner_ = icache_stats pkg.inner_cache;
    weights = Wtable.size pkg.a.w;
    arena = arena_stats pkg;
  }

let cache_hits s =
  s.mm.s_hits + s.mv.s_hits + s.add_.s_hits + s.adj.s_hits + s.inner_.s_hits

let pp_stats ppf s =
  let cache name c =
    if c.s_hits + c.s_misses > 0 then
      Format.fprintf ppf "  %-5s hits %d, misses %d, overwrites %d (%.1f%% hit, %d/%d slots)@,"
        name c.s_hits c.s_misses c.s_overwrites (100.0 *. hit_rate c) c.s_filled c.capacity
  in
  let a = s.arena in
  Format.fprintf ppf "@[<v>nodes: %d allocated, %d live (peak %d)@," s.allocated s.live
    s.peak_live;
  Format.fprintf ppf "gc: %d run(s), %d node(s) reclaimed@," s.gc_runs s.gc_reclaimed;
  cache "mm" s.mm;
  cache "mv" s.mv;
  cache "add" s.add_;
  cache "adj" s.adj;
  cache "inner" s.inner_;
  Format.fprintf ppf "weights: %d distinct@," s.weights;
  Format.fprintf ppf "arena: %d/%d slots, %d resize(s), %d compaction(s)@," a.a_occupancy
    a.a_capacity a.a_resizes a.a_compactions;
  Format.fprintf ppf "arena: %d shard(s), %d shard resize(s)@]" a.a_shards
    a.a_shard_resizes

let stats_to_json s =
  let cache c =
    Printf.sprintf
      "{\"hits\":%d,\"misses\":%d,\"overwrites\":%d,\"hit_rate\":%.4f,\"filled\":%d,\"capacity\":%d}"
      c.s_hits c.s_misses c.s_overwrites (hit_rate c) c.s_filled c.capacity
  in
  let a = s.arena in
  Printf.sprintf
    "{\"allocated\":%d,\"live\":%d,\"peak_live\":%d,\"gc_runs\":%d,\"gc_reclaimed\":%d,\"weights\":%d,\"mm\":%s,\"mv\":%s,\"add\":%s,\"adj\":%s,\"inner\":%s,\"arena\":{\"capacity\":%d,\"occupancy\":%d,\"resizes\":%d,\"compactions\":%d,\"shards\":%d,\"shard_resizes\":%d}}"
    s.allocated s.live s.peak_live s.gc_runs s.gc_reclaimed s.weights (cache s.mm)
    (cache s.mv) (cache s.add_) (cache s.adj) (cache s.inner_) a.a_capacity a.a_occupancy
    a.a_resizes a.a_compactions a.a_shards a.a_shard_resizes
