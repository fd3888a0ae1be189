open Oqec_base

(* One fired rewrite of the worklist engine, as recorded into a verdict
   certificate: the rule tag, the anchor vertices it touched and the
   phases it consumed.  The data is deliberately redundant — recorded
   phases are re-checked against the replayed graph by the independent
   validator, so a corrupted certificate cannot silently change what a
   step means. *)

type t =
  | Color of int
  | Fuse of { into : int; src : int; ph : Phase.t }
  | Id of int
  | Absorb of { leaf : int; axis : int; ph : Phase.t }
  | Lcomp of { v : int; ph : Phase.t }
  | Pivot of { u : int; v : int; pu : Phase.t; pv : Phase.t }
  | Unfuse of { v : int; b : int; w : int; ty : Zx_graph.etype }
  | Gadgetize of { v : int; axis : int; leaf : int; ph : Phase.t }
  | Gadget_flip of { axis : int; leaf : int }
  | Gadget_merge of { leaf : int; axis : int; leaf0 : int; axis0 : int; ph : Phase.t }

(* ------------------------------------------------------------ Wire format *)

(* Phases print as "n/d" (meaning n*pi/d, exact) or "~r" (radians,
   %.17g so the float round-trips).  Parsing a "~" phase goes through
   Phase.of_float, which may snap a value that is within 1e-12 of a
   dyadic fraction — semantically equal under Phase.equal, so replay
   preconditions are unaffected.  A linear symbolic phase
   [c + sum (n/d) * v] prints exactly as "{c;v:n/d;...}", the constant
   in one of the two concrete spellings. *)
let concrete_to_string p =
  match Phase.to_pi_fraction p with
  | Some (n, d) -> Printf.sprintf "%d/%d" n d
  | None -> Printf.sprintf "~%.17g" (Phase.to_float p)

let phase_to_string p =
  match Phase.linear_terms p with
  | None -> concrete_to_string p
  | Some (terms, const) ->
      let term (v, (n, d)) = Printf.sprintf "%s:%d/%d" v n d in
      "{" ^ String.concat ";" (concrete_to_string const :: List.map term terms) ^ "}"

let fraction_of_string s =
  match String.split_on_char '/' s with
  | [ n; d ] -> (
      match (int_of_string_opt n, int_of_string_opt d) with
      | Some n, Some d when d <> 0 -> Some (n, d)
      | _ -> None)
  | _ -> None

let concrete_of_string s =
  let len = String.length s in
  if len = 0 then None
  else if s.[0] = '~' then
    Option.map Phase.of_float (float_of_string_opt (String.sub s 1 (len - 1)))
  else Option.map (fun (n, d) -> Phase.of_pi_fraction n d) (fraction_of_string s)

let phase_of_string s =
  let ( let* ) = Option.bind in
  let len = String.length s in
  if len >= 2 && s.[0] = '{' && s.[len - 1] = '}' then
    match String.split_on_char ';' (String.sub s 1 (len - 2)) with
    | [] -> None
    | c :: terms ->
        let* const = concrete_of_string c in
        let* terms =
          List.fold_right
            (fun t acc ->
              let* acc = acc in
              match String.split_on_char ':' t with
              | [ v; f ] when v <> "" ->
                  let* f = fraction_of_string f in
                  Some ((v, f) :: acc)
              | _ -> None)
            terms (Some [])
        in
        Some (Phase.symbolic ~const terms)
  else concrete_of_string s

let etype_to_string = function Zx_graph.Simple -> "s" | Zx_graph.Had -> "h"

let etype_of_string = function
  | "s" -> Some Zx_graph.Simple
  | "h" -> Some Zx_graph.Had
  | _ -> None

let to_string = function
  | Color v -> Printf.sprintf "color %d" v
  | Fuse { into; src; ph } -> Printf.sprintf "fuse %d %d %s" into src (phase_to_string ph)
  | Id v -> Printf.sprintf "id %d" v
  | Absorb { leaf; axis; ph } ->
      Printf.sprintf "absorb %d %d %s" leaf axis (phase_to_string ph)
  | Lcomp { v; ph } -> Printf.sprintf "lcomp %d %s" v (phase_to_string ph)
  | Pivot { u; v; pu; pv } ->
      Printf.sprintf "pivot %d %d %s %s" u v (phase_to_string pu) (phase_to_string pv)
  | Unfuse { v; b; w; ty } -> Printf.sprintf "unfuse %d %d %d %s" v b w (etype_to_string ty)
  | Gadgetize { v; axis; leaf; ph } ->
      Printf.sprintf "gadgetize %d %d %d %s" v axis leaf (phase_to_string ph)
  | Gadget_flip { axis; leaf } -> Printf.sprintf "gflip %d %d" axis leaf
  | Gadget_merge { leaf; axis; leaf0; axis0; ph } ->
      Printf.sprintf "gmerge %d %d %d %d %s" leaf axis leaf0 axis0 (phase_to_string ph)

let of_string line =
  let ( let* ) = Option.bind in
  let int = int_of_string_opt in
  match String.split_on_char ' ' line with
  | [ "color"; v ] ->
      let* v = int v in
      Some (Color v)
  | [ "fuse"; a; b; p ] ->
      let* into = int a in
      let* src = int b in
      let* ph = phase_of_string p in
      Some (Fuse { into; src; ph })
  | [ "id"; v ] ->
      let* v = int v in
      Some (Id v)
  | [ "absorb"; l; a; p ] ->
      let* leaf = int l in
      let* axis = int a in
      let* ph = phase_of_string p in
      Some (Absorb { leaf; axis; ph })
  | [ "lcomp"; v; p ] ->
      let* v = int v in
      let* ph = phase_of_string p in
      Some (Lcomp { v; ph })
  | [ "pivot"; u; v; p; q ] ->
      let* u = int u in
      let* v = int v in
      let* pu = phase_of_string p in
      let* pv = phase_of_string q in
      Some (Pivot { u; v; pu; pv })
  | [ "unfuse"; v; b; w; t ] ->
      let* v = int v in
      let* b = int b in
      let* w = int w in
      let* ty = etype_of_string t in
      Some (Unfuse { v; b; w; ty })
  | [ "gadgetize"; v; a; l; p ] ->
      let* v = int v in
      let* axis = int a in
      let* leaf = int l in
      let* ph = phase_of_string p in
      Some (Gadgetize { v; axis; leaf; ph })
  | [ "gflip"; a; l ] ->
      let* axis = int a in
      let* leaf = int l in
      Some (Gadget_flip { axis; leaf })
  | [ "gmerge"; l; a; l0; a0; p ] ->
      let* leaf = int l in
      let* axis = int a in
      let* leaf0 = int l0 in
      let* axis0 = int a0 in
      let* ph = phase_of_string p in
      Some (Gadget_merge { leaf; axis; leaf0; axis0; ph })
  | _ -> None

let equal a b =
  match (a, b) with
  | Color u, Color v -> u = v
  | Fuse a, Fuse b -> a.into = b.into && a.src = b.src && Phase.equal a.ph b.ph
  | Id u, Id v -> u = v
  | Absorb a, Absorb b -> a.leaf = b.leaf && a.axis = b.axis && Phase.equal a.ph b.ph
  | Lcomp a, Lcomp b -> a.v = b.v && Phase.equal a.ph b.ph
  | Pivot a, Pivot b ->
      a.u = b.u && a.v = b.v && Phase.equal a.pu b.pu && Phase.equal a.pv b.pv
  | Unfuse a, Unfuse b -> a.v = b.v && a.b = b.b && a.w = b.w && a.ty = b.ty
  | Gadgetize a, Gadgetize b ->
      a.v = b.v && a.axis = b.axis && a.leaf = b.leaf && Phase.equal a.ph b.ph
  | Gadget_flip a, Gadget_flip b -> a.axis = b.axis && a.leaf = b.leaf
  | Gadget_merge a, Gadget_merge b ->
      a.leaf = b.leaf && a.axis = b.axis && a.leaf0 = b.leaf0 && a.axis0 = b.axis0
      && Phase.equal a.ph b.ph
  | _, _ -> false

let pp ppf s = Format.pp_print_string ppf (to_string s)
