(* Modulo-friendly renaming of block-local temporaries.

   After whole-function register allocation, a loop body reuses a small
   set of physical registers at short distances.  Each reuse adds a
   wrapped anti-dependence [use -> next def, distance 1] that caps how
   far iterations may overlap, often forcing the initiation interval up
   to the full critical path — destroying software pipelining.

   This pass rewrites one block: every definition whose value dies
   inside the block (not live-out, not used by the terminator) is moved
   onto a register drawn FIFO from the pool of registers the block does
   not otherwise touch.  FIFO recycling maximizes reuse distance, so the
   surviving anti-dependences are slack.  Values that are live-in,
   live-out or used by the terminator keep their registers, preserving
   the interface of the block.  The rewrite is purely local and
   semantics-preserving. *)

open Midend

(* The registers the block mentions (defs, uses, terminator) added to
   [acc]. *)
let add_mentioned acc (b : Ir.block) =
  List.iter
    (fun instr ->
      List.iter (Liveness.add acc) (Ir.uses_of instr);
      Option.iter (Liveness.add acc) (Ir.def_of instr))
    b.instrs;
  List.iter (Liveness.add acc) (Ir.term_uses b.term)

(* Uses must be rewritten against the substitution as of *before* the
   instruction, so operands are computed strictly before [def_to] (which
   mutates the substitution — think [acc := acc + x]). *)
let rewrite_instr ~use_of ~def_to instr =
  let operand = function
    | Ir.Reg r -> Ir.Reg (use_of r)
    | (Ir.Imm_int _ | Ir.Imm_float _) as imm -> imm
  in
  Ir.map_def def_to (Ir.map_uses operand instr)

(* Rename block [bi] of [f] in place. *)
let run (f : Ir.func) bi =
  let liveness = Liveness.compute f in
  let b = f.Ir.blocks.(bi) in
  (* Values live out or used by the terminator keep their registers. *)
  let keep = Array.copy liveness.Liveness.live_out.(bi) in
  List.iter (Liveness.add keep) (Ir.term_uses b.Ir.term);
  let pool =
    (* Ring registers must be untouched by the block AND hold no value
       that lives into or out of it — a register can carry a live value
       straight through a block without being mentioned by it. *)
    let off_limits = Array.map2 ( lor ) keep liveness.Liveness.live_in.(bi) in
    add_mentioned off_limits b;
    let rec collect r acc =
      if r < 0 then acc
      else collect (r - 1) (if Liveness.mem off_limits r then acc else r :: acc)
    in
    Queue.of_seq (List.to_seq (collect (Machine.num_regs - 1) []))
  in
  (* Forward scan with an active substitution for uses.  When a def is
     renameable, its ring register is reserved until the next def of the
     original register (the end of this value's uses); rings freed at
     that point go to the back of the queue. *)
  let subst = Hashtbl.create 16 in (* original reg -> ring reg *)
  let use_of r = match Hashtbl.find_opt subst r with Some n -> n | None -> r in
  let def_to d =
    (* The previous value of [d] dies here; its ring register (if any)
       becomes reusable. *)
    (match Hashtbl.find_opt subst d with
    | Some ring ->
      Hashtbl.remove subst d;
      Queue.push ring pool
    | None -> ());
    if Liveness.mem keep d then d
    else
      match Queue.take_opt pool with
      | Some ring ->
        Hashtbl.replace subst d ring;
        ring
      | None -> d
  in
  let instrs = List.map (rewrite_instr ~use_of ~def_to) b.Ir.instrs in
  f.Ir.blocks.(bi) <- { b with Ir.instrs }
