open Oqec_base

(* Dense-id complex-weight interning for the DD package.

   The package packs edges into immediate integers, so weights must
   collapse onto small dense ids.  Every weight is first canonicalised
   component by component: each real is assigned to the bucket
   [round (v / tol)], and on lookup the neighbouring buckets are probed
   too, so any two values within [tol] of a stored representative
   collapse onto it ([-0.] is folded onto [+0.] first).  The canonical
   (re, im) pair is then mapped onto an id.

   The id lookup is on the hot path of every edge construction, so the
   main index is an open-addressed int-array table (no allocation per
   probe): slots hold [id + 1] (0 = empty), hashing the canonical IEEE
   bit patterns and comparing candidates by float equality against the
   stored columns.  Float equality is exact on canonical representatives
   — [-0.] is folded onto [+0.] before storing and probing — except for
   NaNs ([nan <> nan]); weights with a NaN component take a slow path
   through a bit-pattern-keyed hashtable, which keeps interning total
   (every NaN payload maps to one id) where float equality is not.

   Ids 0 and 1 are pinned to zero and one, so the arena's zero and
   identity edges are compile-time constants. *)

type t = {
  tol : float;
  reals : (int, float) Hashtbl.t;  (* bucket -> canonical representative *)
  mutable slots : int array;  (* open addressing: id + 1, 0 = empty *)
  mutable smask : int;
  nan_ids : (int64 * int64, int) Hashtbl.t;  (* NaN-component slow path *)
  mutable re : float array;
  mutable im : float array;
  mutable n : int;
}

let zero_id = 0
let one_id = 1

(* Canonicalise [-0.] at the bit level, so that float equality and the
   bit-pattern hash agree. *)
let norm v = if v = 0.0 then 0.0 else v

(* Bucket index for [v], or [None] when no sane bucket exists:
   [int_of_float] on NaN/infinities or on quotients beyond the native-int
   range is undefined behaviour and would produce garbage keys, silently
   aliasing unrelated values. *)
let bucket t v =
  let q = Float.round (v /. t.tol) in
  if Float.is_finite q && Float.abs q < 1e18 then Some (int_of_float q) else None

(* The canonical representative of one real component: an existing
   stored value within [tol], or [v] itself after storing it.
   Non-finite components and magnitudes beyond the bucket range pass
   through uninterned. *)
let intern_real t v =
  let v = norm v in
  match bucket t v with
  | None -> v
  | Some b -> (
      let probe k =
        match Hashtbl.find_opt t.reals k with
        | Some r when Float.abs (r -. v) <= t.tol -> Some r
        | Some _ | None -> None
      in
      match probe b with
      | Some r -> r
      | None -> (
          match probe (b - 1) with
          | Some r -> r
          | None -> (
              match probe (b + 1) with
              | Some r -> r
              | None ->
                  Hashtbl.replace t.reals b v;
                  v)))

let hash_weight re im =
  let h =
    Int64.to_int (Int64.bits_of_float re) * 0x2545F4914F6CDD1D
    lxor Int64.to_int (Int64.bits_of_float im)
  in
  let h = h * 0x2545F4914F6CDD1D in
  (h lxor (h lsr 29)) land max_int

let create ?(tol = Cx.default_tolerance) () =
  if tol <= 0.0 then invalid_arg "Wtable.create: tolerance must be positive";
  let t =
    {
      tol;
      reals = Hashtbl.create 4096;
      slots = Array.make 4096 0;
      smask = 4095;
      nan_ids = Hashtbl.create 16;
      re = Array.make 1024 0.0;
      im = Array.make 1024 0.0;
      n = 0;
    }
  in
  let pin re im =
    let id = t.n in
    t.re.(id) <- re;
    t.im.(id) <- im;
    t.n <- id + 1;
    let h = ref (hash_weight re im land t.smask) in
    while t.slots.(!h) <> 0 do
      h := (!h + 1) land t.smask
    done;
    t.slots.(!h) <- id + 1
  in
  pin 0.0 0.0;
  pin 1.0 0.0;
  (* Seed the common magnitudes so they become the representatives of
     their buckets whatever noisy value arrives first. *)
  let s = 1.0 /. sqrt 2.0 in
  List.iter (fun v -> ignore (intern_real t v)) [ 0.0; 1.0; -1.0; 0.5; -0.5; s; -.s ];
  t

let tolerance t = t.tol
let size t = t.n
let re t id = t.re.(id)
let im t id = t.im.(id)
let get t id = Cx.make t.re.(id) t.im.(id)

let grow_values t =
  let cap = Array.length t.re in
  if t.n >= cap then begin
    let re = Array.make (2 * cap) 0.0 and im = Array.make (2 * cap) 0.0 in
    Array.blit t.re 0 re 0 cap;
    Array.blit t.im 0 im 0 cap;
    t.re <- re;
    t.im <- im
  end

let grow_slots t =
  (* Keep the load factor under 1/2; NaN-path ids are absent from the
     slot table by construction, so rehashing from the value columns
     must skip them. *)
  if 2 * t.n >= t.smask + 1 then begin
    let size = 2 * (t.smask + 1) in
    let slots = Array.make size 0 and smask = size - 1 in
    for id = 0 to t.n - 1 do
      let rv = t.re.(id) and iv = t.im.(id) in
      if not (Float.is_nan rv || Float.is_nan iv) then begin
        let h = ref (hash_weight rv iv land smask) in
        while slots.(!h) <> 0 do
          h := (!h + 1) land smask
        done;
        slots.(!h) <- id + 1
      end
    done;
    t.slots <- slots;
    t.smask <- smask
  end

let fresh_id t rv iv =
  grow_values t;
  let id = t.n in
  t.re.(id) <- rv;
  t.im.(id) <- iv;
  t.n <- id + 1;
  id

let intern_nan t rv iv =
  let key = (Int64.bits_of_float rv, Int64.bits_of_float iv) in
  match Hashtbl.find_opt t.nan_ids key with
  | Some id -> id
  | None ->
      let id = fresh_id t rv iv in
      Hashtbl.replace t.nan_ids key id;
      id

let intern t (z : Cx.t) =
  let rv = intern_real t z.Cx.re and iv = intern_real t z.Cx.im in
  if Float.is_nan rv || Float.is_nan iv then intern_nan t rv iv
  else begin
    let h = ref (hash_weight rv iv land t.smask) in
    let found = ref (-1) in
    while !found < 0 && t.slots.(!h) <> 0 do
      let id = t.slots.(!h) - 1 in
      if t.re.(id) = rv && t.im.(id) = iv then found := id
      else h := (!h + 1) land t.smask
    done;
    if !found >= 0 then !found
    else begin
      let id = fresh_id t rv iv in
      t.slots.(!h) <- id + 1;
      grow_slots t;
      id
    end
  end

