(* If-conversion: turn small branch diamonds into straight-line selects.

   A diamond

       h:  ... branch c, t, e
       t:  <pure instrs>  jump j        (single predecessor h)
       e:  <pure instrs>  jump j        (single predecessor h)
       j:  ...

   (or a triangle, where one arm is [j] itself) becomes

       h:  ... <t-instrs'> <e-instrs'> d := sel c ? dt : de ...  jump j

   Arm instructions are rewritten to fresh destination registers, so
   executing both arms unconditionally clobbers nothing; one [Sel] per
   register the arms define merges the outcomes.

   Eligible arms are short and contain only pure, non-trapping,
   non-memory instructions: loads are excluded because speculating a
   guarded out-of-bounds access would introduce a fault the original
   program did not have.

   The payoff is not the branch itself but downstream: a loop body that
   becomes a single block is a candidate for software pipelining. *)

let max_arm_instrs = 8

let arm_convertible (instrs : Ir.instr list) =
  List.length instrs <= max_arm_instrs
  && List.for_all
       (fun instr ->
         (not (Ir.has_side_effect instr))
         && (not (Ir.may_trap instr))
         && match instr with Ir.Load _ -> false | _ -> true)
       instrs

(* Rewrite an arm's instructions onto fresh destinations; returns the
   rewritten instructions (in order) and the final substitution
   original-reg -> fresh-reg. *)
let rename_arm (f : Ir.func) (instrs : Ir.instr list) =
  let subst = Hashtbl.create 8 in
  let use_of r = match Hashtbl.find_opt subst r with Some n -> n | None -> r in
  let operand = function
    | Ir.Reg r -> Ir.Reg (use_of r)
    | (Ir.Imm_int _ | Ir.Imm_float _) as imm -> imm
  in
  let rewritten =
    List.map
      (fun instr ->
        (* Operands first (they read the pre-instruction state). *)
        let instr' = Ir.map_uses operand instr in
        match Ir.def_of instr' with
        | None -> instr'
        | Some d ->
          let d' = Ir.fresh_reg f f.Ir.reg_ty.(d) in
          Hashtbl.replace subst d d';
          Ir.map_def (fun _ -> d') instr')
      instrs
  in
  (rewritten, subst)

(* Registers defined by an instruction list, in first-def order. *)
let defs_in_order instrs =
  let seen = Hashtbl.create 8 in
  List.filter_map
    (fun instr ->
      match Ir.def_of instr with
      | Some d when not (Hashtbl.mem seen d) ->
        Hashtbl.replace seen d ();
        Some d
      | Some _ | None -> None)
    instrs

(* Try to convert the branch ending block [h]; true on success. *)
let try_convert (f : Ir.func) preds h : bool =
  match f.Ir.blocks.(h).Ir.term with
  | Ir.Branch (cond, bt, be) when bt <> be && bt <> h && be <> h -> (
    let arm b =
      (* An arm is a dedicated forwarding block of the diamond. *)
      let blk = f.Ir.blocks.(b) in
      match blk.Ir.term with
      | Ir.Jump j when preds.(b) = [ h ] && arm_convertible blk.Ir.instrs ->
        Some (blk.Ir.instrs, j)
      | _ -> None
    in
    let finish ~then_instrs ~else_instrs ~join =
      let t', subst_t = rename_arm f then_instrs in
      let e', subst_e = rename_arm f else_instrs in
      let merged = defs_in_order (then_instrs @ else_instrs) in
      (* The condition must survive until the selects; if an arm defines
         the condition register, snapshot it first. *)
      let cond_regs = match cond with Ir.Reg r -> [ r ] | _ -> [] in
      let cond, snapshot =
        if List.exists (fun r -> List.mem r merged) cond_regs then begin
          match cond with
          | Ir.Reg r ->
            let c' = Ir.fresh_reg f f.Ir.reg_ty.(r) in
            (Ir.Reg c', [ Ir.Mov (c', Ir.Reg r) ])
          | _ -> (cond, [])
        end
        else (cond, [])
      in
      let value_in subst d =
        match Hashtbl.find_opt subst d with
        | Some d' -> Ir.Reg d'
        | None -> Ir.Reg d
      in
      let sels =
        List.map
          (fun d -> Ir.Sel (d, cond, value_in subst_t d, value_in subst_e d))
          merged
      in
      let hb = f.Ir.blocks.(h) in
      f.Ir.blocks.(h) <-
        {
          Ir.instrs = hb.Ir.instrs @ snapshot @ t' @ e' @ sels;
          term = Ir.Jump join;
        };
      true
    in
    match (arm bt, arm be) with
    | Some (ti, jt), Some (ei, je) when jt = je && jt <> bt && jt <> be ->
      (* Diamond. *)
      finish ~then_instrs:ti ~else_instrs:ei ~join:jt
    | Some (ti, jt), None when jt = be ->
      (* Triangle: else-arm is the join itself. *)
      finish ~then_instrs:ti ~else_instrs:[] ~join:be
    | None, Some (ei, je) when je = bt ->
      (* Triangle, inverted. *)
      finish ~then_instrs:[] ~else_instrs:ei ~join:bt
    | _ -> false)
  | Ir.Branch _ | Ir.Jump _ | Ir.Ret _ -> false

(* Convert diamonds to a fixpoint; returns the number of conversions. *)
let run (f : Ir.func) : int =
  let converted = ref 0 in
  let continue_ = ref true in
  while !continue_ do
    continue_ := false;
    let preds = Cfg.predecessors f in
    let n = Array.length f.Ir.blocks in
    let rec scan h =
      if h < n then
        if try_convert f preds h then begin
          incr converted;
          ignore (Cfg.simplify f);
          continue_ := true
        end
        else scan (h + 1)
    in
    scan 0
  done;
  !converted
