open Oqec_base

(* Dense expansion: walk every path, multiplying the edge weights down to
   the terminal.  Exponential in [n]; tests, oracles and demos only. *)
let to_dmatrix pkg e ~n =
  let dim = 1 lsl n in
  let m = Dmatrix.zero dim dim in
  let rec fill e v row col w =
    if not (Dd.is_zero_edge e) then begin
      let w = Cx.mul w (Dd.weight pkg e) in
      if v < 0 then Dmatrix.set m row col (Cx.add (Dmatrix.get m row col) w)
      else begin
        let half = 1 lsl v in
        let sub = Dd.children pkg e in
        fill sub.(0) (v - 1) row col w;
        fill sub.(1) (v - 1) row (col + half) w;
        fill sub.(2) (v - 1) (row + half) col w;
        fill sub.(3) (v - 1) (row + half) (col + half) w
      end
    end
  in
  fill e (n - 1) 0 0 Cx.one;
  m

let to_vector pkg e ~n =
  let v = Array.make (1 lsl n) Cx.zero in
  let rec fill e lvl idx w =
    if not (Dd.is_zero_edge e) then begin
      let w = Cx.mul w (Dd.weight pkg e) in
      if lvl < 0 then v.(idx) <- Cx.add v.(idx) w
      else begin
        let sub = Dd.children pkg e in
        fill sub.(0) (lvl - 1) idx w;
        fill sub.(1) (lvl - 1) (idx + (1 lsl lvl)) w
      end
    end
  in
  fill e (n - 1) 0 Cx.one;
  v

(* Visit every distinct non-terminal node reachable from [e] once, in
   depth-first order, as a representative edge into it. *)
let iter_nodes pkg e f =
  let seen = Hashtbl.create 64 in
  let rec visit e =
    let id = Dd.node_id e in
    if (not (Dd.is_zero_edge e)) && id <> 0 && not (Hashtbl.mem seen id) then begin
      Hashtbl.replace seen id ();
      f e;
      Array.iter visit (Dd.children pkg e)
    end
  in
  visit e

let dump pkg ppf e =
  Format.fprintf ppf "root: w=%a -> node %d (level %d, %d nodes)@\n" Cx.pp (Dd.weight pkg e)
    (Dd.node_id e) (Dd.level pkg e) (Dd.node_count pkg e);
  iter_nodes pkg e (fun node ->
      Format.fprintf ppf "  node %d @@ level %d:" (Dd.node_id node) (Dd.level pkg node);
      Array.iteri
        (fun i c ->
          if Dd.is_zero_edge c then Format.fprintf ppf " [%d]=0" i
          else Format.fprintf ppf " [%d]=(%a)->%d" i Cx.pp (Dd.weight pkg c) (Dd.node_id c))
        (Dd.children pkg node);
      Format.fprintf ppf "@\n")

let to_dot pkg e =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "digraph dd {\n  rankdir=TB;\n  node [shape=circle];\n";
  Buffer.add_string buf
    (Printf.sprintf "  root [shape=point];\n  root -> n%d [label=\"%s\"];\n" (Dd.node_id e)
       (Cx.to_string (Dd.weight pkg e)));
  iter_nodes pkg e (fun node ->
      let id = Dd.node_id node in
      Buffer.add_string buf
        (Printf.sprintf "  n%d [label=\"q%d\"];\n" id (Dd.level pkg node));
      Array.iteri
        (fun i c ->
          if not (Dd.is_zero_edge c) then begin
            let w = Dd.weight pkg c in
            let hue = (Cx.arg w +. Float.pi) /. (2.0 *. Float.pi) in
            let target =
              if Dd.node_id c = 0 then "t" else Printf.sprintf "n%d" (Dd.node_id c)
            in
            Buffer.add_string buf
              (Printf.sprintf
                 "  n%d -> %s [label=\"%d\", penwidth=%.2f, color=\"%.3f 0.7 0.7\"];\n" id
                 target i
                 (0.5 +. (3.0 *. Cx.mag w))
                 hue)
          end)
        (Dd.children pkg node));
  Buffer.add_string buf "  t [shape=box, label=\"1\"];\n}\n";
  Buffer.contents buf
