(* Global constant and copy propagation for single-definition registers.

   If a register has exactly one definition in the whole function and
   that definition is [Mov d, imm], every use dominated by the
   definition can read the immediate directly.  (Single-definition
   copies from registers are not propagated globally: the source
   register may be redefined between the copy and the use; immediates
   cannot.) *)

let run (f : Ir.func) : int =
  (* Count definitions and record the unique Mov-immediate defs along
     with their position. *)
  let def_count = Array.make (Ir.num_regs f) 0 in
  let def_site = Hashtbl.create 32 in
  Array.iteri
    (fun i (b : Ir.block) ->
      List.iteri
        (fun k instr ->
          match Ir.def_of instr with
          | Some d ->
            def_count.(d) <- def_count.(d) + 1;
            (match instr with
            | Ir.Mov (_, (Ir.Imm_int _ | Ir.Imm_float _ as imm)) ->
              Hashtbl.replace def_site d (i, k, imm)
            | _ -> ())
          | None -> ())
        b.instrs)
    f.blocks;
  (* With no single-definition Mov-immediate, nothing can change. *)
  if not (Hashtbl.fold (fun d _ found -> found || def_count.(d) = 1) def_site false)
  then 0
  else begin
    let dom = Dom.compute f in
    let reachable = Cfg.reachable f in
    let subst_of ~block ~index r =
      if def_count.(r) <> 1 then None
      else
        match Hashtbl.find_opt def_site r with
        | Some (db, dk, imm) ->
          let dominated =
            if db = block then dk < index
            else reachable.(block) && reachable.(db) && Dom.dominates dom db block
          in
          if dominated then Some imm else None
        | None -> None
    in
    let changed = ref 0 in
    let rewrite_operand ~block ~index operand =
      match operand with
      | Ir.Reg r -> (
        match subst_of ~block ~index r with
        | Some imm ->
          incr changed;
          imm
        | None -> operand)
      | Ir.Imm_int _ | Ir.Imm_float _ -> operand
    in
    Array.iteri
      (fun i (b : Ir.block) ->
        let k = ref 0 in
        let instrs =
          Ir.map_shared
            (fun instr ->
              let instr = Ir.map_uses (rewrite_operand ~block:i ~index:!k) instr in
              incr k;
              instr)
            b.instrs
        in
        (* Terminator uses sit after every instruction of the block. *)
        let term = Ir.map_term_uses (rewrite_operand ~block:i ~index:!k) b.term in
        Ir.update_block f i instrs term)
      f.blocks;
    !changed
  end
