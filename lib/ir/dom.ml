(* Dominator computation (iterative Cooper–Harvey–Kennedy algorithm).
   Used by the loop analysis to find back edges and by loop-invariant
   code motion to reason about loop exits. *)

type t = {
  idom : int array; (* immediate dominator; entry maps to itself *)
  rpo_index : int array;
}

let compute (f : Ir.func) : t =
  let n = Array.length f.blocks in
  let rpo = Cfg.reverse_postorder f in
  let rpo_index = Array.make n max_int in
  List.iteri (fun k b -> rpo_index.(b) <- k) rpo;
  let preds = Cfg.predecessors f in
  let idom = Array.make n (-1) in
  idom.(Ir.entry_block) <- Ir.entry_block;
  let rec intersect a b =
    if a = b then a
    else if rpo_index.(a) > rpo_index.(b) then intersect idom.(a) b
    else intersect a idom.(b)
  in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun b ->
        if b <> Ir.entry_block then begin
          let processed =
            List.filter (fun p -> idom.(p) >= 0) preds.(b)
          in
          match processed with
          | [] -> () (* unreachable *)
          | first :: rest ->
            let new_idom = List.fold_left intersect first rest in
            if idom.(b) <> new_idom then begin
              idom.(b) <- new_idom;
              changed := true
            end
        end)
      rpo
  done;
  { idom; rpo_index }

(* Does [a] dominate [b]?  Unreachable blocks dominate nothing and are
   dominated by everything that matters; callers only ask about
   reachable blocks. *)
let dominates t a b =
  let rec walk b = if b = a then true else if b = Ir.entry_block then false else walk t.idom.(b) in
  if t.idom.(b) < 0 then false else walk b
