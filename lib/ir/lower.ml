(* Lowering from the W2 AST to the three-address IR.

   This is the front half of phase 2: it builds the flowgraph.  The
   input must have passed [W2.Semcheck], so types are trusted here.

   Booleans are lowered to integer 0/1 registers; [and]/[or] are lowered
   to short-circuit control flow (their right operands may contain calls
   with channel effects). *)

exception Unsupported of string

type builder = {
  mutable finished : (int * Ir.block) list;
  mutable current : Ir.instr list; (* reversed *)
  mutable current_label : int;
  mutable next_label : int;
  mutable regs : Ir.ty list; (* reversed *)
  mutable nregs : int;
  vars : (string, Ir.reg) Hashtbl.t;
  var_tys : (string, W2.Ast.ty) Hashtbl.t;
  func_rets : (string, Ir.ty option) Hashtbl.t;
}

let ir_ty_of = function
  | W2.Ast.Tint -> Ir.Int
  | W2.Ast.Tfloat -> Ir.Float
  | W2.Ast.Tbool -> Ir.Bool
  | W2.Ast.Tarray _ -> raise (Unsupported "array value in scalar position")

let fresh_reg b ty =
  let r = b.nregs in
  b.nregs <- r + 1;
  b.regs <- ty :: b.regs;
  r

let emit b instr = b.current <- instr :: b.current

let new_label b =
  let l = b.next_label in
  b.next_label <- l + 1;
  l

let terminate b term =
  b.finished <- (b.current_label, { Ir.instrs = List.rev b.current; term }) :: b.finished;
  b.current <- []

let begin_block b label = b.current_label <- label

(* --- expression types (input is checked, so this cannot fail) --- *)

let rec expr_ty b (expr : W2.Ast.expr) : Ir.ty =
  match expr.e with
  | W2.Ast.Int_lit _ -> Ir.Int
  | W2.Ast.Float_lit _ -> Ir.Float
  | W2.Ast.Bool_lit _ -> Ir.Bool
  | W2.Ast.Var name -> ir_ty_of (Hashtbl.find b.var_tys name)
  | W2.Ast.Index (name, _) -> (
    match Hashtbl.find b.var_tys name with
    | W2.Ast.Tarray (_, elt) -> ir_ty_of elt
    | _ -> raise (Unsupported "indexing a scalar"))
  | W2.Ast.Unary (W2.Ast.Neg, operand) -> expr_ty b operand
  | W2.Ast.Unary (W2.Ast.Not, _) -> Ir.Bool
  | W2.Ast.Binary ((Add | Sub | Mul | Div), left, _) -> expr_ty b left
  | W2.Ast.Binary (Mod, _, _) -> Ir.Int
  | W2.Ast.Binary ((Eq | Ne | Lt | Le | Gt | Ge | And | Or), _, _) -> Ir.Bool
  | W2.Ast.Call (name, _) -> (
    match List.assoc_opt name W2.Ast.builtins with
    | Some (_, ret) -> ir_ty_of ret
    | None -> (
      match Hashtbl.find_opt b.func_rets name with
      | Some (Some ty) -> ty
      | Some None -> raise (Unsupported ("void call to " ^ name ^ " in expression"))
      | None -> raise (Unsupported ("unknown function " ^ name))))

(* --- expressions --- *)

let builtin_unop = function
  | "sqrt" -> Some Ir.Fsqrt
  | "abs" -> Some Ir.Fabs
  | "iabs" -> Some Ir.Iabs
  | "float" -> Some Ir.Itof
  | "trunc" -> Some Ir.Ftoi
  | _ -> None

let builtin_binop = function
  | "min" -> Some Ir.Fmin
  | "max" -> Some Ir.Fmax
  | "imin" -> Some Ir.Imin
  | "imax" -> Some Ir.Imax
  | _ -> None

let rec lower_expr b (expr : W2.Ast.expr) : Ir.operand =
  match expr.e with
  | W2.Ast.Int_lit n -> Ir.Imm_int n
  | W2.Ast.Float_lit f -> Ir.Imm_float f
  | W2.Ast.Bool_lit v -> Ir.Imm_int (if v then 1 else 0)
  | W2.Ast.Var name -> Ir.Reg (Hashtbl.find b.vars name)
  | W2.Ast.Index (name, index) ->
    let idx = lower_expr b index in
    let dst = fresh_reg b (expr_ty b expr) in
    emit b (Ir.Load (dst, name, idx));
    Ir.Reg dst
  | W2.Ast.Unary (W2.Ast.Neg, operand) ->
    let x = lower_expr b operand in
    let ty = expr_ty b operand in
    let dst = fresh_reg b ty in
    emit b (Ir.Un ((if ty = Ir.Float then Ir.Fneg else Ir.Ineg), dst, x));
    Ir.Reg dst
  | W2.Ast.Unary (W2.Ast.Not, operand) ->
    let x = lower_expr b operand in
    let dst = fresh_reg b Ir.Bool in
    emit b (Ir.Un (Ir.Bnot, dst, x));
    Ir.Reg dst
  | W2.Ast.Binary (W2.Ast.And, left, right) ->
    lower_short_circuit b ~is_and:true left right
  | W2.Ast.Binary (W2.Ast.Or, left, right) ->
    lower_short_circuit b ~is_and:false left right
  | W2.Ast.Binary (op, left, right) ->
    let operand_ty = expr_ty b left in
    let x = lower_expr b left in
    let y = lower_expr b right in
    let is_float = operand_ty = Ir.Float in
    let binop =
      match op with
      | W2.Ast.Add -> if is_float then Ir.Fadd else Ir.Iadd
      | W2.Ast.Sub -> if is_float then Ir.Fsub else Ir.Isub
      | W2.Ast.Mul -> if is_float then Ir.Fmul else Ir.Imul
      | W2.Ast.Div -> if is_float then Ir.Fdiv else Ir.Idiv
      | W2.Ast.Mod -> Ir.Imod
      | W2.Ast.Eq -> if is_float then Ir.Fcmp Ir.Ceq else Ir.Icmp Ir.Ceq
      | W2.Ast.Ne -> if is_float then Ir.Fcmp Ir.Cne else Ir.Icmp Ir.Cne
      | W2.Ast.Lt -> if is_float then Ir.Fcmp Ir.Clt else Ir.Icmp Ir.Clt
      | W2.Ast.Le -> if is_float then Ir.Fcmp Ir.Cle else Ir.Icmp Ir.Cle
      | W2.Ast.Gt -> if is_float then Ir.Fcmp Ir.Cgt else Ir.Icmp Ir.Cgt
      | W2.Ast.Ge -> if is_float then Ir.Fcmp Ir.Cge else Ir.Icmp Ir.Cge
      | W2.Ast.And | W2.Ast.Or -> assert false
    in
    let result_ty = expr_ty b expr in
    let dst = fresh_reg b result_ty in
    emit b (Ir.Bin (binop, dst, x, y));
    Ir.Reg dst
  | W2.Ast.Call (name, args) -> (
    let arg_ops () = List.map (lower_expr b) args in
    match (builtin_unop name, builtin_binop name, arg_ops ()) with
    | Some unop, _, [ x ] ->
      let dst = fresh_reg b (expr_ty b expr) in
      emit b (Ir.Un (unop, dst, x));
      Ir.Reg dst
    | _, Some binop, [ x; y ] ->
      let dst = fresh_reg b (expr_ty b expr) in
      emit b (Ir.Bin (binop, dst, x, y));
      Ir.Reg dst
    | None, None, ops ->
      let dst = fresh_reg b (expr_ty b expr) in
      emit b (Ir.Call (Some dst, name, ops));
      Ir.Reg dst
    | _ -> raise (Unsupported ("bad builtin arity for " ^ name)))

and lower_short_circuit b ~is_and left right =
  let result = fresh_reg b Ir.Bool in
  let l_rhs = new_label b in
  let l_const = new_label b in
  let l_join = new_label b in
  let cond = lower_expr b left in
  (if is_and then terminate b (Ir.Branch (cond, l_rhs, l_const))
   else terminate b (Ir.Branch (cond, l_const, l_rhs)));
  begin_block b l_rhs;
  let rhs = lower_expr b right in
  emit b (Ir.Mov (result, rhs));
  terminate b (Ir.Jump l_join);
  begin_block b l_const;
  emit b (Ir.Mov (result, Ir.Imm_int (if is_and then 0 else 1)));
  terminate b (Ir.Jump l_join);
  begin_block b l_join;
  Ir.Reg result

(* --- statements --- *)

let lower_lvalue_store b lv value =
  match lv with
  | W2.Ast.Lvar name -> emit b (Ir.Mov (Hashtbl.find b.vars name, value))
  | W2.Ast.Lindex (name, index) ->
    let idx = lower_expr b index in
    emit b (Ir.Store (name, idx, value))

let rec lower_stmt b (stmt : W2.Ast.stmt) =
  match stmt.s with
  | W2.Ast.Assign (lv, value) ->
    (* The reference interpreter evaluates the right-hand side before
       the index of an indexed target; match that order (both sides can
       reach channel effects through calls). *)
    (match lv with
    | W2.Ast.Lvar name ->
      let v = lower_expr b value in
      emit b (Ir.Mov (Hashtbl.find b.vars name, v))
    | W2.Ast.Lindex (name, index) ->
      let v = lower_expr b value in
      let idx = lower_expr b index in
      emit b (Ir.Store (name, idx, v)))
  | W2.Ast.If (cond, then_branch, else_branch) ->
    let c = lower_expr b cond in
    let l_then = new_label b in
    let l_else = new_label b in
    let l_join = new_label b in
    terminate b (Ir.Branch (c, l_then, l_else));
    begin_block b l_then;
    List.iter (lower_stmt b) then_branch;
    terminate b (Ir.Jump l_join);
    begin_block b l_else;
    List.iter (lower_stmt b) else_branch;
    terminate b (Ir.Jump l_join);
    begin_block b l_join
  | W2.Ast.While (cond, body) ->
    let l_head = new_label b in
    let l_body = new_label b in
    let l_exit = new_label b in
    terminate b (Ir.Jump l_head);
    begin_block b l_head;
    let c = lower_expr b cond in
    terminate b (Ir.Branch (c, l_body, l_exit));
    begin_block b l_body;
    List.iter (lower_stmt b) body;
    terminate b (Ir.Jump l_head);
    begin_block b l_exit
  | W2.Ast.For (var, lo, hi, body) ->
    let v = Hashtbl.find b.vars var in
    let lo_op = lower_expr b lo in
    emit b (Ir.Mov (v, lo_op));
    let hi_op = lower_expr b hi in
    (* Bind the bound to a register so that it is evaluated once. *)
    let limit = fresh_reg b Ir.Int in
    emit b (Ir.Mov (limit, hi_op));
    let l_head = new_label b in
    let l_body = new_label b in
    let l_exit = new_label b in
    terminate b (Ir.Jump l_head);
    begin_block b l_head;
    let c = fresh_reg b Ir.Bool in
    emit b (Ir.Bin (Ir.Icmp Ir.Cle, c, Ir.Reg v, Ir.Reg limit));
    terminate b (Ir.Branch (Ir.Reg c, l_body, l_exit));
    begin_block b l_body;
    List.iter (lower_stmt b) body;
    emit b (Ir.Bin (Ir.Iadd, v, Ir.Reg v, Ir.Imm_int 1));
    terminate b (Ir.Jump l_head);
    begin_block b l_exit
  | W2.Ast.Send (chan, value) ->
    let v = lower_expr b value in
    emit b (Ir.Send (chan, v))
  | W2.Ast.Receive (chan, target) ->
    let ty =
      match target with
      | W2.Ast.Lvar name -> ir_ty_of (Hashtbl.find b.var_tys name)
      | W2.Ast.Lindex (name, _) -> (
        match Hashtbl.find b.var_tys name with
        | W2.Ast.Tarray (_, elt) -> ir_ty_of elt
        | _ -> raise (Unsupported "receive into scalar index"))
    in
    let tmp = fresh_reg b ty in
    emit b (Ir.Recv (chan, tmp));
    lower_lvalue_store b target (Ir.Reg tmp)
  | W2.Ast.Return None ->
    terminate b (Ir.Ret None);
    begin_block b (new_label b)
  | W2.Ast.Return (Some value) ->
    let v = lower_expr b value in
    terminate b (Ir.Ret (Some v));
    begin_block b (new_label b)
  | W2.Ast.Call_stmt (name, args) -> (
    let ops = List.map (lower_expr b) args in
    match (builtin_unop name, builtin_binop name, ops) with
    | Some unop, _, [ x ] ->
      let dst = fresh_reg b Ir.Float in
      emit b (Ir.Un (unop, dst, x))
    | _, Some binop, [ x; y ] ->
      let dst = fresh_reg b Ir.Float in
      emit b (Ir.Bin (binop, dst, x, y))
    | None, None, ops -> emit b (Ir.Call (None, name, ops))
    | _ -> raise (Unsupported ("bad builtin arity for " ^ name)))

(* --- functions and sections --- *)

let scalar_default = Ir.Imm_int 0

let lower_function ~func_rets ?(globals = []) (f : W2.Ast.func) : Ir.func =
  let b =
    {
      finished = [];
      current = [];
      current_label = 0;
      next_label = 1;
      regs = [];
      nregs = 0;
      vars = Hashtbl.create 32;
      var_tys = Hashtbl.create 32;
      func_rets;
    }
  in
  (* Parameters first: calling convention binds them to r0, r1, ... *)
  let params =
    List.map
      (fun (p : W2.Ast.param) ->
        let ty = ir_ty_of p.pty in
        let r = fresh_reg b ty in
        Hashtbl.replace b.vars p.pname r;
        Hashtbl.replace b.var_tys p.pname p.pty;
        (p.pname, ty, r))
      f.params
  in
  let arrays = ref [] in
  let declare_storage (d : W2.Ast.decl) =
    Hashtbl.replace b.var_tys d.dname d.dty;
    match d.dty with
    | W2.Ast.Tarray (n, elt) -> arrays := (d.dname, n, ir_ty_of elt) :: !arrays
    | W2.Ast.Tint | W2.Ast.Tfloat | W2.Ast.Tbool ->
      let r = fresh_reg b (ir_ty_of d.dty) in
      Hashtbl.replace b.vars d.dname r;
      (* Locals start at zero, matching the reference interpreter. *)
      emit b
        (Ir.Mov
           (r, if d.dty = W2.Ast.Tfloat then Ir.Imm_float 0.0 else scalar_default))
  in
  (* Section globals the body mentions are localized: each activation
     gets its own default-initialized storage, matching the reference
     interpreter and the cell simulator's register-window model. *)
  List.iter declare_storage (W2.Ast.localized_globals globals f);
  List.iter declare_storage f.locals;
  List.iter (lower_stmt b) f.body;
  terminate b (Ir.Ret None);
  let blocks = Array.make b.next_label { Ir.instrs = []; term = Ir.Ret None } in
  let seen = Array.make b.next_label false in
  List.iter
    (fun (label, block) ->
      assert (not seen.(label));
      seen.(label) <- true;
      blocks.(label) <- block)
    b.finished;
  assert (Array.for_all (fun x -> x) seen);
  {
    Ir.name = f.fname;
    params;
    arrays = List.rev !arrays;
    blocks;
    reg_ty = Array.of_list (List.rev b.regs);
    ret_ty = Option.map ir_ty_of f.ret;
  }

let lower_section (sec : W2.Ast.section) : Ir.section =
  let func_rets = Hashtbl.create 8 in
  List.iter
    (fun (f : W2.Ast.func) ->
      Hashtbl.replace func_rets f.fname (Option.map ir_ty_of f.ret))
    sec.funcs;
  {
    Ir.sec_name = sec.sname;
    cells = sec.cells;
    funcs = List.map (lower_function ~func_rets ~globals:sec.globals) sec.funcs;
  }

let lower_module (m : W2.Ast.modul) : Ir.section list =
  List.map lower_section m.sections
