(** Abstract syntax of the W2-flavoured language.

    The shape mirrors the source structure of the paper's section 3.1:
    a module contains section programs (one per group of Warp cells),
    a section contains one or more functions, and functions are the
    unit of parallel compilation.  [send]/[receive] expose the systolic
    X and Y channels connecting neighbouring cells. *)

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
  | And (** short-circuit *)
  | Or (** short-circuit *)

type unop = Neg | Not

type channel = Chan_x | Chan_y
(** The two systolic data channels of a cell.  X flows left to right
    through the array; Y flows right to left. *)

(** One variable, call or channel position of a body, as reported by
    {!iter_stmts}. *)
type occurrence =
  | Read of string
  | Write of string
  | Call of string  (** every call, builtins included *)
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
  | Call of string * expr list (** user function or builtin *)

type lvalue = Lvar of string | Lindex of string * expr

type stmt = { s : stmt_node; sloc : Loc.t }

and stmt_node =
  | Assign of lvalue * expr
  | If of expr * stmt list * stmt list
  | While of expr * stmt list
  | For of string * expr * expr * stmt list
      (** counted loop; bounds evaluate once, the variable may not be
          assigned in the body and is [hi+1] after a completed loop *)
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

(** Section-level [globals] declare per-cell static storage visible to
    every function of the section.  The backend localizes them — each
    activation starts from a default-initialized copy — so their main
    significance is compile-time coupling between sibling functions,
    which {!module:Analysis.Depan} (in the analysis library) tracks. *)
type section = {
  sname : string;
  cells : int;
  globals : decl list;
  funcs : func list;
  secloc : Loc.t;
}

(** One imported-function signature, restated at the import site so the
    module can be checked — and separately analyzed — without its
    dependencies' sources ({!module:Analysis.Modan} builds on this). *)
type import_sig = {
  is_name : string;
  is_params : ty list;
  is_ret : ty option;
  is_loc : Loc.t;
}

type import_decl = {
  im_module : string;  (** the providing module *)
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

val imported_sigs : modul -> import_sig list
(** Every imported signature, in declaration order. *)

val exports_function : modul -> string -> bool

val builtins : (string * (ty list * ty)) list
(** Built-in functions with their signatures: [sqrt], [abs], [iabs],
    [min], [max], [imin], [imax], [float] (int→float), [trunc]. *)

val is_builtin : string -> bool

val ty_to_string : ty -> string
val binop_to_string : binop -> string
val channel_to_string : channel -> string

val channel_of_string : string -> channel option
(** The inverse of {!channel_to_string}. *)

(** {1 Names, calls and channels}

    The one syntactic walk every analysis of a body shares.  It reports
    the array of an [Index] as a [Read] and of an [Lindex] as a
    [Write], a for variable as a [Write], an assignment's value before
    its target, and every call including builtins.  Scoping is the
    consumer's business: a name is reported whether it is a parameter,
    a local or a global. *)

val iter_expr : (occurrence -> unit) -> expr -> unit
val iter_stmts : (occurrence -> unit) -> stmt list -> unit

val rename : (string -> string) -> stmt list -> stmt list
(** Apply a renaming to every variable position, for variables
    included; call names and channels are untouched. *)

val localized_globals : decl list -> func -> decl list
(** The section globals (given in declaration order) a function body
    mentions, in that order: the storage the backend localizes into
    each activation. *)

(** {1 Structural metrics}

    Inputs to the load-balancing heuristic of the paper's section 4.3
    ("a combination of lines of code and loop nesting can serve as
    approximation of the compilation time"). *)

val stmt_count : stmt list -> int
(** Statements, counted recursively. *)

val max_loop_nesting : stmt list -> int
(** Depth of the deepest loop nest. *)

val func_lines : func -> int
(** Approximate source lines of a function (see {!Pretty.func_loc} for
    the exact rendered count). *)

val func_count : modul -> int
(** Total functions over all sections: the parallel task count. *)

val find_function : modul -> section:string -> name:string -> func option
