(* Test-only oracles: the hand-written AST walkers Depan, Inline, Modan,
   Lint and Lower each carried before W2.Ast's occurrence walk replaced
   them.  The differential properties in test_ast.ml check that every
   consumer agrees with these. *)

module Ast = W2.Ast
module SS = Set.Make (String)

(* Depan.direct_effects, uncapped, rendered as the public record. *)
let direct_effects ~globals (f : Ast.func) : Analysis.Depan.effects =
  let bound =
    SS.union
      (SS.of_list (List.map (fun (p : Ast.param) -> p.pname) f.params))
      (SS.of_list (List.map (fun (d : Ast.decl) -> d.dname) f.locals))
  in
  let is_global n = SS.mem n globals && not (SS.mem n bound) in
  let r = ref SS.empty and w = ref SS.empty and cs = ref SS.empty in
  let sx = ref false and sy = ref false and rx = ref false and ry = ref false in
  let read n = if is_global n then r := SS.add n !r in
  let write n = if is_global n then w := SS.add n !w in
  let call n = if not (Ast.is_builtin n) then cs := SS.add n !cs in
  let send = function Ast.Chan_x -> sx := true | Ast.Chan_y -> sy := true in
  let recv = function Ast.Chan_x -> rx := true | Ast.Chan_y -> ry := true in
  let rec expr (x : Ast.expr) =
    match x.e with
    | Ast.Int_lit _ | Ast.Float_lit _ | Ast.Bool_lit _ -> ()
    | Ast.Var n -> read n
    | Ast.Index (n, i) ->
      read n;
      expr i
    | Ast.Unary (_, a) -> expr a
    | Ast.Binary (_, a, b) ->
      expr a;
      expr b
    | Ast.Call (n, args) ->
      call n;
      List.iter expr args
  in
  let lvalue = function
    | Ast.Lvar n -> write n
    | Ast.Lindex (n, i) ->
      write n;
      expr i
  in
  let rec stmt (s : Ast.stmt) =
    match s.s with
    | Ast.Assign (lv, x) ->
      expr x;
      lvalue lv
    | Ast.If (c, t, f) ->
      expr c;
      List.iter stmt t;
      List.iter stmt f
    | Ast.While (c, b) ->
      expr c;
      List.iter stmt b
    | Ast.For (v, lo, hi, b) ->
      write v;
      expr lo;
      expr hi;
      List.iter stmt b
    | Ast.Send (c, x) ->
      send c;
      expr x
    | Ast.Receive (c, lv) ->
      recv c;
      lvalue lv
    | Ast.Return None -> ()
    | Ast.Return (Some x) -> expr x
    | Ast.Call_stmt (n, args) ->
      call n;
      List.iter expr args
  in
  List.iter stmt f.body;
  let chans x y = (if x then [ Ast.Chan_x ] else []) @ if y then [ Ast.Chan_y ] else [] in
  {
    Analysis.Depan.greads = SS.elements !r;
    gwrites = SS.elements !w;
    sends = chans !sx !sy;
    recvs = chans !rx !ry;
    calls = SS.elements !cs;
    limited = false;
  }

(* Inline.has_calls_*: a call statement blocked inlining even when it
   called a builtin. *)
let rec has_calls_stmts stmts = List.exists has_calls_stmt stmts

and has_calls_stmt (s : Ast.stmt) =
  match s.s with
  | Ast.Assign (lv, e) -> has_calls_lvalue lv || has_calls_expr e
  | Ast.If (c, a, b) -> has_calls_expr c || has_calls_stmts a || has_calls_stmts b
  | Ast.While (c, b) -> has_calls_expr c || has_calls_stmts b
  | Ast.For (_, lo, hi, b) ->
    has_calls_expr lo || has_calls_expr hi || has_calls_stmts b
  | Ast.Send (_, e) -> has_calls_expr e
  | Ast.Receive (_, lv) -> has_calls_lvalue lv
  | Ast.Return (Some e) -> has_calls_expr e
  | Ast.Return None -> false
  | Ast.Call_stmt _ -> true

and has_calls_expr (e : Ast.expr) =
  match e.e with
  | Ast.Int_lit _ | Ast.Float_lit _ | Ast.Bool_lit _ | Ast.Var _ -> false
  | Ast.Index (_, i) -> has_calls_expr i
  | Ast.Unary (_, x) -> has_calls_expr x
  | Ast.Binary (_, a, b) -> has_calls_expr a || has_calls_expr b
  | Ast.Call (name, args) ->
    (not (Ast.is_builtin name)) || List.exists has_calls_expr args

and has_calls_lvalue = function
  | Ast.Lvar _ -> false
  | Ast.Lindex (_, i) -> has_calls_expr i

(* Inline.has_free_vars. *)
let has_free_vars (f : Ast.func) =
  let bound = Hashtbl.create 8 in
  List.iter (fun (p : Ast.param) -> Hashtbl.replace bound p.pname ()) f.params;
  List.iter (fun (d : Ast.decl) -> Hashtbl.replace bound d.dname ()) f.locals;
  let free = ref false in
  let name n = if not (Hashtbl.mem bound n) then free := true in
  let rec expr (e : Ast.expr) =
    match e.e with
    | Ast.Var v -> name v
    | Ast.Index (v, i) ->
      name v;
      expr i
    | Ast.Unary (_, x) -> expr x
    | Ast.Binary (_, a, b) ->
      expr a;
      expr b
    | Ast.Call (_, args) -> List.iter expr args
    | Ast.Int_lit _ | Ast.Float_lit _ | Ast.Bool_lit _ -> ()
  and lvalue = function
    | Ast.Lvar v -> name v
    | Ast.Lindex (v, i) ->
      name v;
      expr i
  and stmt (s : Ast.stmt) =
    match s.s with
    | Ast.Assign (lv, e) ->
      lvalue lv;
      expr e
    | Ast.If (c, a, b) ->
      expr c;
      List.iter stmt a;
      List.iter stmt b
    | Ast.While (c, b) ->
      expr c;
      List.iter stmt b
    | Ast.For (v, lo, hi, b) ->
      name v;
      expr lo;
      expr hi;
      List.iter stmt b
    | Ast.Send (_, e) -> expr e
    | Ast.Receive (_, lv) -> lvalue lv
    | Ast.Return (Some e) -> expr e
    | Ast.Return None -> ()
    | Ast.Call_stmt (_, args) -> List.iter expr args
  in
  List.iter stmt f.body;
  !free

(* Inline.rename_{expr,lvalue,stmt}. *)
let rec rename_expr table (e : Ast.expr) : Ast.expr =
  let node =
    match e.e with
    | Ast.Var v -> Ast.Var (try Hashtbl.find table v with Not_found -> v)
    | Ast.Index (v, i) ->
      Ast.Index ((try Hashtbl.find table v with Not_found -> v), rename_expr table i)
    | Ast.Unary (op, x) -> Ast.Unary (op, rename_expr table x)
    | Ast.Binary (op, a, b) -> Ast.Binary (op, rename_expr table a, rename_expr table b)
    | Ast.Call (name, args) -> Ast.Call (name, List.map (rename_expr table) args)
    | (Ast.Int_lit _ | Ast.Float_lit _ | Ast.Bool_lit _) as lit -> lit
  in
  { e with Ast.e = node }

let rename_lvalue table = function
  | Ast.Lvar v -> Ast.Lvar (try Hashtbl.find table v with Not_found -> v)
  | Ast.Lindex (v, i) ->
    Ast.Lindex ((try Hashtbl.find table v with Not_found -> v), rename_expr table i)

let rec rename_stmt table (s : Ast.stmt) : Ast.stmt =
  let node =
    match s.s with
    | Ast.Assign (lv, e) -> Ast.Assign (rename_lvalue table lv, rename_expr table e)
    | Ast.If (c, a, b) ->
      Ast.If (rename_expr table c, List.map (rename_stmt table) a, List.map (rename_stmt table) b)
    | Ast.While (c, b) -> Ast.While (rename_expr table c, List.map (rename_stmt table) b)
    | Ast.For (v, lo, hi, b) ->
      Ast.For
        ( (try Hashtbl.find table v with Not_found -> v),
          rename_expr table lo,
          rename_expr table hi,
          List.map (rename_stmt table) b )
    | Ast.Send (c, e) -> Ast.Send (c, rename_expr table e)
    | Ast.Receive (c, lv) -> Ast.Receive (c, rename_lvalue table lv)
    | Ast.Return e -> Ast.Return (Option.map (rename_expr table) e)
    | Ast.Call_stmt (name, args) -> Ast.Call_stmt (name, List.map (rename_expr table) args)
  in
  { s with Ast.s = node }

(* Modan.inline_project's per-function global renaming: parameters and
   locals shadow, and for variables were left as they were. *)
let project_rename_func rename (f : Ast.func) =
  let shadow =
    SS.of_list
      (List.map (fun (p : Ast.param) -> p.Ast.pname) f.Ast.params
      @ List.map (fun (d : Ast.decl) -> d.Ast.dname) f.Ast.locals)
  in
  let rn v =
    if SS.mem v shadow then v
    else match Hashtbl.find_opt rename v with Some v' -> v' | None -> v
  in
  let rec rx (e : Ast.expr) =
    {
      e with
      Ast.e =
        (match e.Ast.e with
        | Ast.Var v -> Ast.Var (rn v)
        | Ast.Index (v, i) -> Ast.Index (rn v, rx i)
        | Ast.Unary (o, a) -> Ast.Unary (o, rx a)
        | Ast.Binary (o, a, b) -> Ast.Binary (o, rx a, rx b)
        | Ast.Call (f, args) -> Ast.Call (f, List.map rx args)
        | (Ast.Int_lit _ | Ast.Float_lit _ | Ast.Bool_lit _) as n -> n);
    }
  in
  let rlv = function
    | Ast.Lvar v -> Ast.Lvar (rn v)
    | Ast.Lindex (v, i) -> Ast.Lindex (rn v, rx i)
  in
  let rec rs (s : Ast.stmt) =
    {
      s with
      Ast.s =
        (match s.Ast.s with
        | Ast.Assign (lv, e) -> Ast.Assign (rlv lv, rx e)
        | Ast.If (c, t, f) -> Ast.If (rx c, List.map rs t, List.map rs f)
        | Ast.While (c, b) -> Ast.While (rx c, List.map rs b)
        | Ast.For (v, lo, hi, b) -> Ast.For (v, rx lo, rx hi, List.map rs b)
        | Ast.Send (c, e) -> Ast.Send (c, rx e)
        | Ast.Receive (c, lv) -> Ast.Receive (c, rlv lv)
        | Ast.Return e -> Ast.Return (Option.map rx e)
        | Ast.Call_stmt (f, args) -> Ast.Call_stmt (f, List.map rx args));
    }
  in
  { f with Ast.body = List.map rs f.Ast.body }

(* Lint.stmt_calls / expr_calls / lvalue_calls. *)
let rec stmt_calls f (stmt : Ast.stmt) =
  let expr e = expr_calls f e in
  match stmt.s with
  | Ast.Assign (lv, value) ->
    lvalue_calls f lv;
    expr value
  | Ast.If (cond, t, e) ->
    expr cond;
    List.iter (stmt_calls f) t;
    List.iter (stmt_calls f) e
  | Ast.While (cond, body) ->
    expr cond;
    List.iter (stmt_calls f) body
  | Ast.For (_, lo, hi, body) ->
    expr lo;
    expr hi;
    List.iter (stmt_calls f) body
  | Ast.Send (_, value) -> expr value
  | Ast.Receive (_, target) -> lvalue_calls f target
  | Ast.Return None -> ()
  | Ast.Return (Some value) -> expr value
  | Ast.Call_stmt (name, args) ->
    f name;
    List.iter expr args

and expr_calls f (expr : Ast.expr) =
  match expr.e with
  | Ast.Int_lit _ | Ast.Float_lit _ | Ast.Bool_lit _ | Ast.Var _ -> ()
  | Ast.Index (_, index) -> expr_calls f index
  | Ast.Unary (_, operand) -> expr_calls f operand
  | Ast.Binary (_, left, right) ->
    expr_calls f left;
    expr_calls f right
  | Ast.Call (name, args) ->
    f name;
    List.iter (expr_calls f) args

and lvalue_calls f = function
  | Ast.Lvar _ -> ()
  | Ast.Lindex (_, index) -> expr_calls f index

(* Lint.expr_reads. *)
let rec expr_reads f (expr : Ast.expr) =
  match expr.e with
  | Ast.Int_lit _ | Ast.Float_lit _ | Ast.Bool_lit _ -> ()
  | Ast.Var name -> f name
  | Ast.Index (name, index) ->
    f name;
    expr_reads f index
  | Ast.Unary (_, operand) -> expr_reads f operand
  | Ast.Binary (_, left, right) ->
    expr_reads f left;
    expr_reads f right
  | Ast.Call (_, args) -> List.iter (expr_reads f) args

(* Lower.referenced_names. *)
let referenced_names (f : Ast.func) =
  let names = Hashtbl.create 16 in
  let add n = Hashtbl.replace names n () in
  let rec expr (e : Ast.expr) =
    match e.e with
    | Ast.Var v -> add v
    | Ast.Index (v, i) ->
      add v;
      expr i
    | Ast.Unary (_, x) -> expr x
    | Ast.Binary (_, a, b) ->
      expr a;
      expr b
    | Ast.Call (_, args) -> List.iter expr args
    | Ast.Int_lit _ | Ast.Float_lit _ | Ast.Bool_lit _ -> ()
  and lvalue = function
    | Ast.Lvar v -> add v
    | Ast.Lindex (v, i) ->
      add v;
      expr i
  and stmt (s : Ast.stmt) =
    match s.s with
    | Ast.Assign (lv, e) ->
      lvalue lv;
      expr e
    | Ast.If (c, a, b) ->
      expr c;
      List.iter stmt a;
      List.iter stmt b
    | Ast.While (c, b) ->
      expr c;
      List.iter stmt b
    | Ast.For (v, lo, hi, b) ->
      add v;
      expr lo;
      expr hi;
      List.iter stmt b
    | Ast.Send (_, e) -> expr e
    | Ast.Receive (_, lv) -> lvalue lv
    | Ast.Return (Some e) -> expr e
    | Ast.Return None -> ()
    | Ast.Call_stmt (_, args) -> List.iter expr args
  in
  List.iter stmt f.body;
  names

(* The globals Lower localized: those [referenced_names] found, in
   declaration order. *)
let localized_globals (globals : Ast.decl list) (f : Ast.func) =
  let used = referenced_names f in
  List.filter (fun (d : Ast.decl) -> Hashtbl.mem used d.dname) globals
