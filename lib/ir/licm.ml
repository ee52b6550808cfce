(* Loop-invariant code motion.

   An instruction is hoisted to the loop preheader when:
   - it is pure and cannot trap (it will execute speculatively on the
     zero-trip path);
   - all register operands have no definition inside the loop;
   - its destination has exactly one definition inside the loop;
   - its destination is not live into the header (no value from before
     the loop is being overwritten) and not live into any exit target
     (the zero-trip path never exposes the speculated value).

   Loads additionally require that no store to the same array occurs
   anywhere in the loop.  Calls never move. *)

module Iset = Loops.Iset

(* Find or create a preheader: the unique block outside the loop that
   jumps to the header.  If the outside predecessors are several, or
   reach the header through a branch, a fresh forwarding block is
   spliced in front of the header.  Returns its index. *)
let ensure_preheader (f : Ir.func) (l : Loops.loop) : int =
  let preds = Cfg.predecessors f in
  let outside = List.filter (fun p -> not (Iset.mem p l.body)) preds.(l.header) in
  match outside with
  | [ p ] when (match f.blocks.(p).term with Ir.Jump _ -> true | _ -> false) -> p
  | _ ->
    let fresh = Array.length f.blocks in
    let pre = { Ir.instrs = []; term = Ir.Jump l.header } in
    f.blocks <- Array.append f.blocks [| pre |];
    List.iter
      (fun p ->
        let b = f.blocks.(p) in
        let redirect label = if label = l.header then fresh else label in
        f.blocks.(p) <- { b with Ir.term = Cfg.map_term_labels redirect b.term })
      outside;
    fresh

(* Definition counts per register within the loop body. *)
let loop_def_counts (f : Ir.func) (l : Loops.loop) =
  let counts = Array.make (Ir.num_regs f) 0 in
  Iset.iter
    (fun bi ->
      List.iter
        (fun instr -> Option.iter (fun d -> counts.(d) <- counts.(d) + 1) (Ir.def_of instr))
        f.blocks.(bi).instrs)
    l.body;
  counts

let stores_and_calls (f : Ir.func) (l : Loops.loop) =
  let stored = Hashtbl.create 4 in
  Iset.iter
    (fun bi ->
      List.iter
        (fun instr ->
          match instr with
          | Ir.Store (arr, _, _) -> Hashtbl.replace stored arr ()
          | Ir.Bin _ | Ir.Un _ | Ir.Mov _ | Ir.Sel _ | Ir.Load _ | Ir.Call _
          | Ir.Send _ | Ir.Recv _ ->
            ())
        f.blocks.(bi).instrs)
    l.body;
  stored

(* Hoist from one loop until fixpoint; returns hoist count. *)
let hoist_loop (f : Ir.func) (l : Loops.loop) : int =
  let hoisted = ref 0 in
  let continue_ = ref true in
  while !continue_ do
    continue_ := false;
    let liveness = lazy (Liveness.compute f) in
    let def_counts = loop_def_counts f l in
    let stored = stores_and_calls f l in
    let live_in_blocks =
      l.header :: List.map snd l.exits
    in
    let dst_blocked d =
      List.exists
        (fun b -> Liveness.mem (Lazy.force liveness).Liveness.live_in.(b) d)
        live_in_blocks
    in
    let candidate instr =
      (not (Ir.has_side_effect instr))
      && (not (Ir.may_trap instr))
      && List.for_all (fun r -> def_counts.(r) = 0) (Ir.uses_of instr)
      &&
      match Ir.def_of instr with
      | Some d -> def_counts.(d) = 1 && not (dst_blocked d)
      | None -> false
    in
    let load_safe = function
      | Ir.Load (_, arr, _) -> not (Hashtbl.mem stored arr)
      | _ -> true
    in
    (* Find the first hoistable instruction in the loop. *)
    let rec first bi k = function
      | [] -> None
      | instr :: rest ->
        if candidate instr && load_safe instr then Some (bi, k) else first bi (k + 1) rest
    in
    match Seq.find_map (fun bi -> first bi 0 f.blocks.(bi).instrs) (Iset.to_seq l.body) with
    | None -> ()
    | Some (bi, k) ->
      let pre = ensure_preheader f l in
      let b = f.blocks.(bi) in
      let instr = List.nth b.instrs k in
      f.blocks.(bi) <-
        { b with Ir.instrs = List.filteri (fun j _ -> j <> k) b.instrs };
      let pb = f.blocks.(pre) in
      f.blocks.(pre) <- { pb with Ir.instrs = pb.instrs @ [ instr ] };
      incr hoisted;
      continue_ := true
  done;
  !hoisted

(* Hoist across all loops, innermost first. *)
let run (f : Ir.func) : int =
  let total = ref 0 in
  let rec go budget =
    if budget > 0 then begin
      let loops = Loops.find f in
      let before = !total in
      List.iter (fun l -> total := !total + hoist_loop f l) loops;
      (* [ensure_preheader] may have renumbered nothing but appended
         blocks; loop structures are stale after hoisting, so recompute
         and retry until stable. *)
      if !total > before then go (budget - 1)
    end
  in
  go 4;
  !total
