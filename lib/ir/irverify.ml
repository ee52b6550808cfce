(* IR invariant verifier, in the spirit of LLVM's -verify-each.

   Every optimization pass must preserve these invariants; the driver
   runs the verifier once at the end of phase 2 unconditionally, and
   [Opt.optimize ~verify_each:true] re-runs it after every pass so a
   violation names the pass that introduced it.

   Checked invariants:
   - the block array is non-empty and every terminator target is a
     valid block index (entry is block 0 by convention);
   - every register index (defs, operand uses, terminator uses) is
     within [reg_ty];
   - operand and destination types agree with [reg_ty] up to the
     int/bool register class (booleans are 0/1 integer registers after
     lowering, so Int and Bool share a class; Float is its own);
     [Sel]/[Icmp]/[Branch] conditions must be of the int class;
   - no register is used on a path along which it may be uninitialized
     (a forward may-be-uninitialized dataflow from the entry block;
     parameters start initialized);
   - loads and stores reference declared arrays, and constant indices
     are within the declared bounds;
   - within a section, calls resolve to a section function with
     matching arity, matching argument classes, and result/return
     agreement.

   Valid IR is the common case, so a message and its context (the
   rendered instruction) are built only when a violation is recorded;
   the def-before-use dataflow runs on word bitsets, as [Liveness]
   does. *)

type violation = {
  vi_func : string;
  vi_block : int; (* -1 for function-level findings *)
  vi_pass : string option; (* the pass after which the check failed *)
  vi_msg : string;
}

exception Invalid of violation list

let violation_to_string v =
  Printf.sprintf "%s%s/B%d: %s"
    (match v.vi_pass with Some p -> "[after " ^ p ^ "] " | None -> "")
    v.vi_func v.vi_block v.vi_msg

(* Register classes: Int and Bool coincide (booleans are 0/1 integers
   after lowering and passes freely mix them); Float is separate. *)
type cls = KInt | KFloat

let cls_of = function Ir.Int | Ir.Bool -> KInt | Ir.Float -> KFloat
let cls_to_string = function KInt -> "int" | KFloat -> "float"

let binop_sig = function
  | Ir.Iadd | Ir.Isub | Ir.Imul | Ir.Idiv | Ir.Imod | Ir.Band | Ir.Bor
  | Ir.Imin | Ir.Imax ->
    (KInt, KInt)
  | Ir.Fadd | Ir.Fsub | Ir.Fmul | Ir.Fdiv | Ir.Fmin | Ir.Fmax -> (KFloat, KFloat)
  | Ir.Icmp _ -> (KInt, KInt)
  | Ir.Fcmp _ -> (KFloat, KInt)

let unop_sig = function
  | Ir.Ineg | Ir.Bnot | Ir.Iabs -> (KInt, KInt)
  | Ir.Fneg | Ir.Fsqrt | Ir.Fabs -> (KFloat, KFloat)
  | Ir.Itof -> (KInt, KFloat)
  | Ir.Ftoi -> (KFloat, KInt)

let check_func ?pass (f : Ir.func) : violation list =
  let violations = ref [] in
  let out bi msg =
    violations :=
      { vi_func = f.Ir.name; vi_block = bi; vi_pass = pass; vi_msg = msg }
      :: !violations
  in
  let nregs = Ir.num_regs f in
  let nblocks = Array.length f.Ir.blocks in
  if nblocks = 0 then begin
    out (-1) "function has no blocks (entry block 0 is required)";
    List.rev !violations
  end
  else begin
    let reg_ok r = r >= 0 && r < nregs in
    (* [ctx ()] renders the context of a message: it runs only when a
       violation is recorded. *)
    let check_reg bi ~ctx r =
      if not (reg_ok r) then
        out bi (Printf.sprintf "%s: register r%d outside reg_ty (%d registers)" (ctx ()) r nregs)
    in
    (* Class of an operand, when it is checkable: immediates fix their
       own class; an out-of-range register has none. *)
    let operand_cls = function
      | Ir.Reg r -> if reg_ok r then Some (cls_of f.Ir.reg_ty.(r)) else None
      | Ir.Imm_int _ -> Some KInt
      | Ir.Imm_float _ -> Some KFloat
    in
    let check_operand bi ~ctx ~want op =
      (match op with Ir.Reg r -> check_reg bi ~ctx r | _ -> ());
      match operand_cls op with
      | Some k when k <> want ->
        out bi
          (Printf.sprintf "%s: operand %s has class %s but %s was expected" (ctx ())
             (Ir.operand_to_string op) (cls_to_string k) (cls_to_string want))
      | Some _ | None -> ()
    in
    let check_def bi ~ctx ~want d =
      check_reg bi ~ctx d;
      if reg_ok d && cls_of f.Ir.reg_ty.(d) <> want then
        out bi
          (Printf.sprintf "%s: destination r%d has class %s but the result is %s" (ctx ())
             d (cls_to_string (cls_of f.Ir.reg_ty.(d))) (cls_to_string want))
    in
    let array_decl name = List.find_opt (fun (a, _, _) -> a = name) f.Ir.arrays in
    let check_instr bi instr =
      let ctx () = Ir.instr_to_string instr in
      let ctx_part part () = ctx () ^ part in
      match instr with
      | Ir.Bin (op, d, a, b) ->
        let want_in, want_out = binop_sig op in
        check_operand bi ~ctx ~want:want_in a;
        check_operand bi ~ctx ~want:want_in b;
        check_def bi ~ctx ~want:want_out d
      | Ir.Un (op, d, a) ->
        let want_in, want_out = unop_sig op in
        check_operand bi ~ctx ~want:want_in a;
        check_def bi ~ctx ~want:want_out d
      | Ir.Mov (d, a) -> (
        check_reg bi ~ctx d;
        match (operand_cls a, reg_ok d) with
        | Some k, true ->
          if cls_of f.Ir.reg_ty.(d) <> k then
            out bi
              (Printf.sprintf "%s: moving a %s value into %s register r%d" (ctx ())
                 (cls_to_string k)
                 (cls_to_string (cls_of f.Ir.reg_ty.(d)))
                 d)
        | _ -> ())
      | Ir.Sel (d, c, a, b) ->
        check_operand bi ~ctx:(ctx_part " condition") ~want:KInt c;
        check_reg bi ~ctx d;
        if reg_ok d then begin
          let want = cls_of f.Ir.reg_ty.(d) in
          check_operand bi ~ctx ~want a;
          check_operand bi ~ctx ~want b
        end
      | Ir.Load (d, name, index) -> (
        check_reg bi ~ctx d;
        (match array_decl name with
        | None -> out bi (Printf.sprintf "%s: undeclared array '%s'" (ctx ()) name)
        | Some (_, size, elt) ->
          (if reg_ok d && cls_of f.Ir.reg_ty.(d) <> cls_of elt then
             out bi
               (Printf.sprintf "%s: loading %s element into %s register r%d" (ctx ())
                  (cls_to_string (cls_of elt))
                  (cls_to_string (cls_of f.Ir.reg_ty.(d)))
                  d));
          match index with
          | Ir.Imm_int n when n < 0 || n >= size ->
            out bi
              (Printf.sprintf "%s: constant index %d out of bounds for '%s' (size %d)"
                 (ctx ()) n name size)
          | _ -> ());
        check_operand bi ~ctx:(ctx_part " index") ~want:KInt index)
      | Ir.Store (name, index, v) -> (
        (match array_decl name with
        | None -> out bi (Printf.sprintf "%s: undeclared array '%s'" (ctx ()) name)
        | Some (_, size, elt) ->
          check_operand bi ~ctx ~want:(cls_of elt) v;
          (match index with
          | Ir.Imm_int n when n < 0 || n >= size ->
            out bi
              (Printf.sprintf "%s: constant index %d out of bounds for '%s' (size %d)"
                 (ctx ()) n name size)
          | _ -> ()));
        check_operand bi ~ctx:(ctx_part " index") ~want:KInt index)
      | Ir.Call (d, _, args) ->
        (* Signature agreement is a section-level check; here only the
           register indices can be validated. *)
        (match d with Some d -> check_reg bi ~ctx d | None -> ());
        List.iter
          (function Ir.Reg r -> check_reg bi ~ctx r | _ -> ())
          args
      | Ir.Send (_, v) -> (
        match v with Ir.Reg r -> check_reg bi ~ctx r | _ -> ())
      | Ir.Recv (_, d) -> check_reg bi ~ctx d
    in
    Array.iteri
      (fun bi (b : Ir.block) ->
        List.iter (check_instr bi) b.Ir.instrs;
        let check_target l =
          if l < 0 || l >= nblocks then
            out bi (Printf.sprintf "terminator target L%d out of range (%d blocks)" l nblocks)
        in
        match b.Ir.term with
        | Ir.Jump l -> check_target l
        | Ir.Branch (c, t, e) ->
          check_operand bi ~ctx:(fun () -> "branch condition") ~want:KInt c;
          check_target t;
          check_target e
        | Ir.Ret None ->
          ()
        | Ir.Ret (Some v) -> (
          (match v with Ir.Reg r -> check_reg bi ~ctx:(fun () -> "ret") r | _ -> ());
          match (f.Ir.ret_ty, operand_cls v) with
          | Some ty, Some k when cls_of ty <> k ->
            out bi
              (Printf.sprintf "ret: returning a %s value from a %s function"
                 (cls_to_string k)
                 (cls_to_string (cls_of ty)))
          | _ -> ()))
      f.Ir.blocks;
    (* Def-before-use: forward may-be-uninitialized dataflow.  A
       register is maybe-uninitialized at a point if some path from the
       entry reaches the point without passing a definition.  Parameters
       are defined on entry.  Only reachable blocks participate, so dead
       code cannot produce findings.

       [Ifconv] rewrites a conditionally-assigned register as
       [d := sel c ? v : d].  The identity arm only propagates the old
       value — it is selected exactly when the original branch would not
       have assigned — so for this analysis it is neither a use of [d]
       nor an initializing definition. *)
    if !violations = [] && nregs > 0 then begin
      let uninit_uses instr =
        match instr with
        | Ir.Sel (d, c, a, b) ->
          let arms = List.filter (fun o -> o <> Ir.Reg d) [ a; b ] in
          List.filter_map
            (function Ir.Reg r -> Some r | _ -> None)
            (c :: arms)
        | _ -> Ir.uses_of instr
      in
      let uninit_def instr =
        match instr with
        | Ir.Sel (d, _, a, b) when a = Ir.Reg d || b = Ir.Reg d -> None
        | _ -> Ir.def_of instr
      in
      let reachable = Cfg.reachable f in
      (* Per block, the registers it initializes. *)
      let kill =
        Array.map
          (fun (b : Ir.block) ->
            let k = Liveness.create nregs in
            List.iter
              (fun instr ->
                match uninit_def instr with
                | Some d when reg_ok d -> Liveness.add k d
                | Some _ | None -> ())
              b.Ir.instrs;
            k)
          f.Ir.blocks
      in
      (* IN[entry] = all non-params maybe-uninit; IN[b] = union of OUT
         of reachable predecessors (start from the empty set), where
         OUT = IN − kill. *)
      let in_sets = Array.init nblocks (fun _ -> Liveness.create nregs) in
      let entry = in_sets.(Ir.entry_block) in
      for r = 0 to nregs - 1 do
        Liveness.add entry r
      done;
      List.iter (fun (_, _, r) -> Liveness.remove entry r) f.Ir.params;
      let changed = ref true in
      while !changed do
        changed := false;
        Array.iteri
          (fun i (b : Ir.block) ->
            if reachable.(i) then begin
              let inn = in_sets.(i) and kill = kill.(i) in
              List.iter
                (fun s ->
                  let dst = in_sets.(s) in
                  for w = 0 to Array.length dst - 1 do
                    let x = dst.(w) lor (inn.(w) land lnot kill.(w)) in
                    if x <> dst.(w) then begin
                      dst.(w) <- x;
                      changed := true
                    end
                  done)
                (Ir.successors b.Ir.term)
            end)
          f.Ir.blocks
      done;
      Array.iteri
        (fun bi (b : Ir.block) ->
          if reachable.(bi) then begin
            let m = Array.copy in_sets.(bi) in
            let use ctx r =
              if reg_ok r && Liveness.mem m r then
                out bi
                  (Printf.sprintf "%s: use of possibly-uninitialized register r%d"
                     (ctx ()) r)
            in
            List.iter
              (fun instr ->
                List.iter (use (fun () -> Ir.instr_to_string instr)) (uninit_uses instr);
                match uninit_def instr with
                | Some d when reg_ok d -> Liveness.remove m d
                | Some _ | None -> ())
              b.Ir.instrs;
            List.iter (use (fun () -> Ir.term_to_string b.Ir.term)) (Ir.term_uses b.Ir.term)
          end)
        f.Ir.blocks
    end;
    List.rev !violations
  end

(* Call-signature agreement across the functions of one section.  After
   lowering, builtins have become [Un]/[Bin] instructions, so every
   remaining [Call] must resolve to a function of the same section. *)
let check_calls (sec : Ir.section) : violation list =
  let violations = ref [] in
  let sigs = Hashtbl.create 8 in
  List.iter
    (fun (f : Ir.func) ->
      Hashtbl.replace sigs f.Ir.name
        (List.map (fun (_, ty, _) -> ty) f.Ir.params, f.Ir.ret_ty))
    sec.Ir.funcs;
  List.iter
    (fun (f : Ir.func) ->
      let out bi msg =
        violations :=
          { vi_func = f.Ir.name; vi_block = bi; vi_pass = None; vi_msg = msg }
          :: !violations
      in
      let operand_cls = function
        | Ir.Reg r ->
          if r >= 0 && r < Ir.num_regs f then Some (cls_of f.Ir.reg_ty.(r)) else None
        | Ir.Imm_int _ -> Some KInt
        | Ir.Imm_float _ -> Some KFloat
      in
      Array.iteri
        (fun bi (b : Ir.block) ->
          List.iter
            (fun instr ->
              match instr with
              | Ir.Call (dst, callee, args) -> (
                let ctx () = Ir.instr_to_string instr in
                match Hashtbl.find_opt sigs callee with
                | None ->
                  out bi
                    (Printf.sprintf "%s: call to '%s', which is not a function of section '%s'"
                       (ctx ()) callee sec.Ir.sec_name)
                | Some (param_tys, ret_ty) ->
                  if List.length param_tys <> List.length args then
                    out bi
                      (Printf.sprintf "%s: '%s' takes %d argument(s) but %d given" (ctx ())
                         callee (List.length param_tys) (List.length args))
                  else
                    List.iteri
                      (fun i (pty, arg) ->
                        match operand_cls arg with
                        | Some k when k <> cls_of pty ->
                          out bi
                            (Printf.sprintf
                               "%s: argument %d of '%s' has class %s but %s was expected"
                               (ctx ()) (i + 1) callee (cls_to_string k)
                               (cls_to_string (cls_of pty)))
                        | Some _ | None -> ())
                      (List.combine param_tys args);
                  (match (dst, ret_ty) with
                  | Some _, None ->
                    out bi
                      (Printf.sprintf "%s: '%s' returns no value but the result is used"
                         (ctx ()) callee)
                  | Some d, Some rty
                    when d >= 0 && d < Ir.num_regs f
                         && cls_of f.Ir.reg_ty.(d) <> cls_of rty ->
                    out bi
                      (Printf.sprintf
                         "%s: result register r%d has class %s but '%s' returns %s"
                         (ctx ())
                         d
                         (cls_to_string (cls_of f.Ir.reg_ty.(d)))
                         callee
                         (cls_to_string (cls_of rty)))
                  | _ -> ()))
              | _ -> ())
            b.Ir.instrs)
        f.Ir.blocks)
    sec.Ir.funcs;
  List.rev !violations

(* All violations in a section: per-function invariants plus the
   cross-function call agreement. *)
let check_section (sec : Ir.section) : violation list =
  List.concat_map check_func sec.Ir.funcs @ check_calls sec
