(* Global dead-code elimination based on liveness.

   A pure instruction whose destination is dead immediately after it is
   removed.  Stores, calls, sends and receives always stay (calls can
   carry channel traffic; a receive consumes queue data even if the
   value is unused).

   Each block takes one backward {!Liveness.sweep} over one mutable
   bitset.  A removed instruction's uses still count as live above it,
   so one run removes only what is dead against the unedited block.
   A block that loses nothing is left as it is. *)

let run (f : Ir.func) : int =
  let removed = ref 0 in
  let liveness = Liveness.compute f in
  Array.iteri
    (fun i (b : Ir.block) ->
      let keep = ref [] and before = !removed in
      Liveness.sweep liveness f i (fun instr after ->
          let dead =
            (not (Ir.has_side_effect instr))
            &&
            match Ir.def_of instr with
            | Some d -> not (Liveness.mem after d)
            | None -> false
          in
          if dead then incr removed else keep := instr :: !keep);
      if !removed > before then f.blocks.(i) <- { b with Ir.instrs = !keep })
    f.blocks;
  !removed
