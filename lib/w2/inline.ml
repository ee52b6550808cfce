(* Procedure inlining (section 5.1 of the paper).

   "Procedure inlining is an important optimization that should be
   included in the compiler if the source programs consist of many
   small functions.  Not only will procedure inlining allow the code
   generator to perform a better job, the increase in size of each
   function operated upon will also improve the speedup obtained by the
   parallel compiler."

   A callee is inlinable when it is small, calls no user function, and
   returns only as its last statement.  A call site is expanded when its
   evaluation point is unconditional within its statement: anywhere in
   an assignment right-hand side, a return, a send, an if condition or
   for bounds (all evaluated exactly once, in source order) — but not
   under the short-circuit right operand of and/or, and not in a while
   condition (re-evaluated every iteration).

   Expansion hoists the argument expressions into fresh temporaries,
   splices the renamed callee body, and replaces the call by the
   temporary holding the return value. *)

type stats = { mutable inlined : int; mutable skipped : int }

let dummy = Loc.dummy

(* --- inlinability --- *)

(* Returns appear only as the very last statement. *)
let rec no_early_returns = function
  | [] -> true
  | [ { Ast.s = Ast.Return _; _ } ] -> true
  | stmt :: rest ->
    let clean (s : Ast.stmt) =
      match s.Ast.s with
      | Ast.Return _ -> false
      | Ast.If (_, a, b) -> no_returns a && no_returns b
      | Ast.While (_, b) | Ast.For (_, _, _, b) -> no_returns b
      | Ast.Assign _ | Ast.Send _ | Ast.Receive _ | Ast.Call_stmt _ -> true
    in
    clean stmt && no_early_returns rest

and no_returns stmts =
  List.for_all
    (fun (s : Ast.stmt) ->
      match s.Ast.s with
      | Ast.Return _ -> false
      | Ast.If (_, a, b) -> no_returns a && no_returns b
      | Ast.While (_, b) | Ast.For (_, _, _, b) -> no_returns b
      | Ast.Assign _ | Ast.Send _ | Ast.Receive _ | Ast.Call_stmt _ -> true)
    stmts

(* Inlinable bodies call no user function and mention only parameters
   and locals: any other variable is a section global (semcheck admits
   nothing else). *)
let leaf_and_closed (f : Ast.func) =
  let bound = Hashtbl.create 8 in
  List.iter (fun (p : Ast.param) -> Hashtbl.replace bound p.pname ()) f.params;
  List.iter (fun (d : Ast.decl) -> Hashtbl.replace bound d.dname ()) f.locals;
  let ok = ref true in
  Ast.iter_stmts
    (function
      | Ast.Call n -> if not (Ast.is_builtin n) then ok := false
      | Ast.Read n | Ast.Write n -> if not (Hashtbl.mem bound n) then ok := false
      | Ast.Send _ | Ast.Recv _ -> ())
    f.body;
  !ok

let inlinable ~max_lines (f : Ast.func) =
  Ast.func_lines f <= max_lines
  && no_early_returns f.body
  (* Array locals would need per-activation zeroing loops at every
     splice point; such callees stay out of line. *)
  && List.for_all
       (fun (d : Ast.decl) ->
         match d.dty with
         | Ast.Tint | Ast.Tfloat | Ast.Tbool -> true
         | Ast.Tarray _ -> false)
       f.locals
  (* Globals are localized per activation; splicing the body into a
     caller would silently merge the two activations' copies. *)
  && leaf_and_closed f

(* --- expansion --- *)

type ctx = {
  callees : (string, Ast.func) Hashtbl.t; (* inlinable functions *)
  mutable new_locals : Ast.decl list; (* reversed *)
  mutable counter : int;
  stats : stats;
}

let fresh ctx base ty =
  let name = Printf.sprintf "__inl%d_%s" ctx.counter base in
  ctx.counter <- ctx.counter + 1;
  ctx.new_locals <- { Ast.dname = name; dty = ty; dloc = dummy } :: ctx.new_locals;
  name

(* Expand the body of [callee] at a call site.  Returns the statements
   to prepend and the variable holding the result. *)
let expand_call ctx (callee : Ast.func) (args : Ast.expr list) :
    Ast.stmt list * string =
  ctx.stats.inlined <- ctx.stats.inlined + 1;
  let table = Hashtbl.create 8 in
  (* Arguments are bound to fresh temporaries in call order. *)
  let arg_stmts =
    List.map2
      (fun (p : Ast.param) arg ->
        let tmp = fresh ctx p.pname p.pty in
        Hashtbl.replace table p.pname tmp;
        { Ast.s = Ast.Assign (Ast.Lvar tmp, arg); sloc = dummy })
      callee.params args
  in
  (* Locals become caller temporaries, re-zeroed at every splice point:
     the call site may sit in a loop, and each activation of the callee
     starts from fresh (zero) locals. *)
  let local_inits =
    List.map
      (fun (d : Ast.decl) ->
        let tmp = fresh ctx d.dname d.dty in
        Hashtbl.replace table d.dname tmp;
        let zero =
          match d.dty with
          | Ast.Tint -> Ast.Int_lit 0
          | Ast.Tfloat -> Ast.Float_lit 0.0
          | Ast.Tbool -> Ast.Bool_lit false
          | Ast.Tarray _ -> assert false (* excluded by [inlinable] *)
        in
        { Ast.s = Ast.Assign (Ast.Lvar tmp, { Ast.e = zero; eloc = dummy }); sloc = dummy })
      callee.locals
  in
  let result =
    fresh ctx ("ret_" ^ callee.fname) (Option.value ~default:Ast.Tint callee.ret)
  in
  let body =
    Ast.rename (fun v -> Option.value ~default:v (Hashtbl.find_opt table v)) callee.body
  in
  (* The last statement is the (only) return; turn it into an
     assignment to the result temporary. *)
  let rec replace_tail = function
    | [ { Ast.s = Ast.Return (Some e); _ } ] ->
      [ { Ast.s = Ast.Assign (Ast.Lvar result, e); sloc = dummy } ]
    | [ { Ast.s = Ast.Return None; _ } ] -> []
    | stmt :: rest -> stmt :: replace_tail rest
    | [] -> []
  in
  (arg_stmts @ local_inits @ replace_tail body, result)

(* Rewrite an expression in an unconditionally-evaluated position:
   user-function calls to inlinable callees become references to result
   temporaries; the spliced statements accumulate in [out] (in
   evaluation order). *)
let rec expand_expr ctx out (e : Ast.expr) : Ast.expr =
  let node =
    match e.e with
    | Ast.Call (name, args) when not (Ast.is_builtin name) -> (
      (* Arguments are evaluated left to right before the call. *)
      let args = List.map (expand_expr ctx out) args in
      match Hashtbl.find_opt ctx.callees name with
      | Some callee when List.length callee.Ast.params = List.length args ->
        let stmts, result = expand_call ctx callee args in
        out := !out @ stmts;
        Ast.Var result
      | Some _ | None ->
        ctx.stats.skipped <- ctx.stats.skipped + 1;
        Ast.Call (name, args))
    | Ast.Call (name, args) -> Ast.Call (name, List.map (expand_expr ctx out) args)
    | Ast.Binary (((Ast.And | Ast.Or) as op), left, right) ->
      (* The right operand is conditionally evaluated: inline inside the
         left only. *)
      Ast.Binary (op, expand_expr ctx out left, right)
    | Ast.Binary (op, a, b) ->
      (* Bind explicitly: hoisted statements must follow the left-to-
         right evaluation order of the language. *)
      let a = expand_expr ctx out a in
      let b = expand_expr ctx out b in
      Ast.Binary (op, a, b)
    | Ast.Unary (op, x) -> Ast.Unary (op, expand_expr ctx out x)
    | Ast.Index (v, i) -> Ast.Index (v, expand_expr ctx out i)
    | (Ast.Int_lit _ | Ast.Float_lit _ | Ast.Bool_lit _ | Ast.Var _) as leaf -> leaf
  in
  { e with Ast.e = node }

let rec expand_stmt ctx (s : Ast.stmt) : Ast.stmt list =
  let hoisted = ref [] in
  let node =
    match s.s with
    | Ast.Assign (lv, e) ->
      (* Right-hand side evaluates before an indexed target's index. *)
      let e = expand_expr ctx hoisted e in
      let lv =
        match lv with
        | Ast.Lvar _ -> lv
        | Ast.Lindex (v, i) -> Ast.Lindex (v, expand_expr ctx hoisted i)
      in
      Some (Ast.Assign (lv, e))
    | Ast.If (c, a, b) ->
      let c = expand_expr ctx hoisted c in
      Some (Ast.If (c, expand_stmts ctx a, expand_stmts ctx b))
    | Ast.While (c, b) ->
      (* The condition re-evaluates every iteration: no expansion in it. *)
      Some (Ast.While (c, expand_stmts ctx b))
    | Ast.For (v, lo, hi, b) ->
      let lo = expand_expr ctx hoisted lo in
      let hi = expand_expr ctx hoisted hi in
      Some (Ast.For (v, lo, hi, expand_stmts ctx b))
    | Ast.Send (c, e) -> Some (Ast.Send (c, expand_expr ctx hoisted e))
    | Ast.Receive _ -> Some s.s
    | Ast.Return (Some e) -> Some (Ast.Return (Some (expand_expr ctx hoisted e)))
    | Ast.Return None -> Some s.s
    | Ast.Call_stmt (name, args) when not (Ast.is_builtin name) -> (
      let args = List.map (expand_expr ctx hoisted) args in
      match Hashtbl.find_opt ctx.callees name with
      | Some callee when List.length callee.Ast.params = List.length args ->
        let stmts, _result = expand_call ctx callee args in
        hoisted := !hoisted @ stmts;
        None
      | Some _ | None ->
        ctx.stats.skipped <- ctx.stats.skipped + 1;
        Some (Ast.Call_stmt (name, args)))
    | Ast.Call_stmt (name, args) ->
      Some (Ast.Call_stmt (name, List.map (expand_expr ctx hoisted) args))
  in
  !hoisted @ (match node with Some n -> [ { s with Ast.s = n } ] | None -> [])

and expand_stmts ctx stmts = List.concat_map (expand_stmt ctx) stmts

(* --- top level --- *)

let default_max_lines = 45

(* Expand calls to small leaf functions throughout a section.  Inlined
   callees are kept (they may still be called from skipped sites or be
   entry points). *)
let expand_section ?(max_lines = default_max_lines) (sec : Ast.section) :
    Ast.section * stats =
  let stats = { inlined = 0; skipped = 0 } in
  let callees = Hashtbl.create 8 in
  List.iter
    (fun (f : Ast.func) ->
      if inlinable ~max_lines f then Hashtbl.replace callees f.fname f)
    sec.funcs;
  let funcs =
    List.map
      (fun (f : Ast.func) ->
        if Hashtbl.mem callees f.fname then f (* leaf callees stay as-is *)
        else begin
          let ctx = { callees; new_locals = []; counter = 0; stats } in
          let body = expand_stmts ctx f.body in
          { f with Ast.locals = f.locals @ List.rev ctx.new_locals; body }
        end)
      sec.funcs
  in
  ({ sec with Ast.funcs }, stats)

let expand_module ?max_lines (m : Ast.modul) : Ast.modul * stats =
  let total = { inlined = 0; skipped = 0 } in
  let sections =
    List.map
      (fun sec ->
        let sec, stats = expand_section ?max_lines sec in
        total.inlined <- total.inlined + stats.inlined;
        total.skipped <- total.skipped + stats.skipped;
        sec)
      m.sections
  in
  ({ m with Ast.sections }, total)

(* Drop functions unreachable from [roots] (by direct calls).  Useful
   after expansion: helpers that were inlined everywhere need not be
   compiled at all — exactly the grain-coarsening effect section 5.1 is
   after. *)
let prune_section ~roots (sec : Ast.section) : Ast.section =
  let by_name = Hashtbl.create 8 in
  List.iter (fun (f : Ast.func) -> Hashtbl.replace by_name f.fname f) sec.funcs;
  let live = Hashtbl.create 8 in
  let rec visit name =
    if not (Hashtbl.mem live name) then begin
      Hashtbl.replace live name ();
      match Hashtbl.find_opt by_name name with
      | None -> ()
      | Some f ->
        Ast.iter_stmts
          (function
            | Ast.Call n when not (Ast.is_builtin n) -> visit n
            | _ -> ())
          f.body
    end
  in
  List.iter visit roots;
  { sec with Ast.funcs = List.filter (fun (f : Ast.func) -> Hashtbl.mem live f.fname) sec.funcs }
