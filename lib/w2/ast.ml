(* Abstract syntax of the W2-flavoured language.

   The shape mirrors the source structure described in section 3.1 of the
   paper: a module contains section programs (one per group of Warp
   cells), a section contains one or more functions, and functions are
   the unit of parallel compilation.  [send] and [receive] expose the
   systolic X and Y channels that connect neighbouring cells. *)

type ty = Tint | Tfloat | Tbool | Tarray of int * ty

type binop =
  | Add
  | Sub
  | Mul
  | Div
  | Mod
  | Eq
  | Ne
  | Lt
  | Le
  | Gt
  | Ge
  | And
  | Or

type unop = Neg | Not

(* The two systolic data channels of a Warp cell.  A [receive] reads the
   channel coming from the left neighbour; a [send] feeds the right
   neighbour. *)
type channel = Chan_x | Chan_y

(* One variable, call or channel position of a body.  Declared before
   [expr] and [stmt] so their [Call] and [Send] stay the default
   constructors of those names. *)
type occurrence =
  | Read of string
  | Write of string
  | Call of string
  | Send of channel
  | Recv of channel

type expr = { e : expr_node; eloc : Loc.t }

and expr_node =
  | Int_lit of int
  | Float_lit of float
  | Bool_lit of bool
  | Var of string
  | Index of string * expr
  | Unary of unop * expr
  | Binary of binop * expr * expr
  | Call of string * expr list

type lvalue = Lvar of string | Lindex of string * expr

type stmt = { s : stmt_node; sloc : Loc.t }

and stmt_node =
  | Assign of lvalue * expr
  | If of expr * stmt list * stmt list
  | While of expr * stmt list
  | For of string * expr * expr * stmt list
  | Send of channel * expr
  | Receive of channel * lvalue
  | Return of expr option
  | Call_stmt of string * expr list

type param = { pname : string; pty : ty; ploc : Loc.t }
type decl = { dname : string; dty : ty; dloc : Loc.t }

type func = {
  fname : string;
  params : param list;
  ret : ty option;
  locals : decl list;
  body : stmt list;
  floc : Loc.t;
}

(* Section-level [globals] declare per-cell static storage visible to
   every function of the section.  The reproduction's backend localizes
   them (each activation gets a default-initialized copy — the cell
   simulator's register-window model has no static segment), so their
   interest is chiefly *compile-time*: functions touching the same
   global are coupled, which the dependence analyzer tracks. *)
type section = {
  sname : string;
  cells : int;
  globals : decl list;
  funcs : func list;
  secloc : Loc.t;
}

(* Cross-module interface declarations.  An [import] names another
   module and the signatures of the functions it pulls in — the
   signature is repeated at the import site so a module can be checked
   (and separately analyzed) without its dependencies' sources, the
   separate-compilation discipline {!Analysis.Modan} builds on.  An
   [export] marks a function as part of the module's interface; only
   exported functions may be imported elsewhere. *)
type import_sig = {
  is_name : string;
  is_params : ty list;
  is_ret : ty option;
  is_loc : Loc.t;
}

type import_decl = {
  im_module : string; (** the providing module *)
  im_sigs : import_sig list;
  im_loc : Loc.t;
}

type export_decl = { ex_name : string; ex_loc : Loc.t }

type modul = {
  mname : string;
  imports : import_decl list;
  exports : export_decl list;
  sections : section list;
  mloc : Loc.t;
}

let imported_sigs (m : modul) : import_sig list =
  List.concat_map (fun im -> im.im_sigs) m.imports

let exports_function (m : modul) name =
  List.exists (fun e -> e.ex_name = name) m.exports

(* Names of the built-in functions understood by the checker, the
   interpreter and the code generator. *)
let builtins =
  [
    ("sqrt", ([ Tfloat ], Tfloat));
    ("abs", ([ Tfloat ], Tfloat));
    ("iabs", ([ Tint ], Tint));
    ("min", ([ Tfloat; Tfloat ], Tfloat));
    ("max", ([ Tfloat; Tfloat ], Tfloat));
    ("imin", ([ Tint; Tint ], Tint));
    ("imax", ([ Tint; Tint ], Tint));
    ("float", ([ Tint ], Tfloat));
    ("trunc", ([ Tfloat ], Tint));
  ]

let is_builtin name = List.mem_assoc name builtins

let rec ty_to_string = function
  | Tint -> "int"
  | Tfloat -> "float"
  | Tbool -> "bool"
  | Tarray (n, t) -> Printf.sprintf "array[%d] of %s" n (ty_to_string t)

let binop_to_string = function
  | Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | Div -> "/"
  | Mod -> "mod"
  | Eq -> "="
  | Ne -> "<>"
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="
  | And -> "and"
  | Or -> "or"

let channel_to_string = function Chan_x -> "X" | Chan_y -> "Y"

(* The one syntactic walk over bodies.  An indexed array is read by
   [Index] and written by [Lindex]; a for variable is written; an
   assignment's value comes before its target; every call, builtins
   included, is reported and the consumer filters. *)
let rec iter_expr (f : occurrence -> unit) (x : expr) =
  match x.e with
  | Int_lit _ | Float_lit _ | Bool_lit _ -> ()
  | Var n -> f (Read n)
  | Index (n, i) ->
    f (Read n);
    iter_expr f i
  | Unary (_, a) -> iter_expr f a
  | Binary (_, a, b) ->
    iter_expr f a;
    iter_expr f b
  | Call (n, args) ->
    f (Call n : occurrence);
    List.iter (iter_expr f) args

let iter_lvalue f = function
  | Lvar n -> f (Write n)
  | Lindex (n, i) ->
    f (Write n);
    iter_expr f i

let rec iter_stmts (f : occurrence -> unit) (stmts : stmt list) =
  List.iter
    (fun (st : stmt) ->
      match st.s with
      | Assign (lv, x) ->
        iter_expr f x;
        iter_lvalue f lv
      | If (c, t, e) ->
        iter_expr f c;
        iter_stmts f t;
        iter_stmts f e
      | While (c, b) ->
        iter_expr f c;
        iter_stmts f b
      | For (v, lo, hi, b) ->
        f (Write v);
        iter_expr f lo;
        iter_expr f hi;
        iter_stmts f b
      | Send (c, x) ->
        f (Send c : occurrence);
        iter_expr f x
      | Receive (c, lv) ->
        f (Recv c);
        iter_lvalue f lv
      | Return x -> Option.iter (iter_expr f) x
      | Call_stmt (n, args) ->
        f (Call n : occurrence);
        List.iter (iter_expr f) args)
    stmts

let rename (f : string -> string) (stmts : stmt list) =
  let rec expr (x : expr) =
    let e =
      match x.e with
      | (Int_lit _ | Float_lit _ | Bool_lit _) as lit -> lit
      | Var n -> Var (f n)
      | Index (n, i) -> Index (f n, expr i)
      | Unary (op, a) -> Unary (op, expr a)
      | Binary (op, a, b) -> Binary (op, expr a, expr b)
      | Call (n, args) -> Call (n, List.map expr args)
    in
    { x with e }
  in
  let lvalue = function
    | Lvar n -> Lvar (f n)
    | Lindex (n, i) -> Lindex (f n, expr i)
  in
  let rec stmt (st : stmt) =
    let s =
      match st.s with
      | Assign (lv, x) -> Assign (lvalue lv, expr x)
      | If (c, t, e) -> If (expr c, List.map stmt t, List.map stmt e)
      | While (c, b) -> While (expr c, List.map stmt b)
      | For (v, lo, hi, b) -> For (f v, expr lo, expr hi, List.map stmt b)
      | Send (c, x) -> Send (c, expr x)
      | Receive (c, lv) -> Receive (c, lvalue lv)
      | Return x -> Return (Option.map expr x)
      | Call_stmt (n, args) -> Call_stmt (n, List.map expr args)
    in
    { st with s }
  in
  List.map stmt stmts

let localized_globals (globals : decl list) (fn : func) =
  let mentioned = Hashtbl.create 16 in
  iter_stmts
    (function
      | Read n | Write n -> Hashtbl.replace mentioned n ()
      | Call _ | Send _ | Recv _ -> ())
    fn.body;
  List.filter (fun d -> Hashtbl.mem mentioned d.dname) globals

(* Structural metrics used by the load-balancing heuristic of section 4.3
   ("a combination of lines of code and loop nesting can serve as
   approximation of the compilation time"). *)

let rec stmt_count stmts =
  let node s =
    match s.s with
    | Assign _ | Send _ | Receive _ | Return _ | Call_stmt _ -> 1
    | If (_, t, e) -> 1 + stmt_count t + stmt_count e
    | While (_, b) -> 1 + stmt_count b
    | For (_, _, _, b) -> 1 + stmt_count b
  in
  List.fold_left (fun acc s -> acc + node s) 0 stmts

let rec max_loop_nesting stmts =
  let node s =
    match s.s with
    | Assign _ | Send _ | Receive _ | Return _ | Call_stmt _ -> 0
    | If (_, t, e) -> max (max_loop_nesting t) (max_loop_nesting e)
    | While (_, b) | For (_, _, _, b) -> 1 + max_loop_nesting b
  in
  List.fold_left (fun acc s -> max acc (node s)) 0 stmts

(* Approximate source lines of a function: declarations plus statements
   plus the header/footer lines the pretty printer emits.  The generator
   targets this metric when synthesising the f_tiny..f_huge programs. *)
let func_lines f = 2 + List.length f.locals + stmt_count f.body

let func_count m =
  List.fold_left (fun acc s -> acc + List.length s.funcs) 0 m.sections

let find_function m ~section ~name =
  List.find_opt (fun s -> s.sname = section) m.sections
  |> Option.map (fun s -> List.find_opt (fun f -> f.fname = name) s.funcs)
  |> Option.join
