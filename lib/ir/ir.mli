(** Three-address intermediate representation.

    Phase 2 of the compiler (flowgraph construction, local
    optimization, global dependency computation) operates on this IR;
    phase 3 (software pipelining and code generation) consumes it.
    Registers are mutable virtual registers — deliberately not SSA, in
    keeping with the era of the paper's compiler.

    Arrays live in per-function (per-activation) local memory and are
    referred to by name; the language has no aliasing, so a store can
    only interfere with loads of the same array, and a callee can never
    touch the caller's arrays. *)

type reg = int

type ty = Int | Float | Bool

type operand = Reg of reg | Imm_int of int | Imm_float of float

type cmp = Ceq | Cne | Clt | Cle | Cgt | Cge

type binop =
  | Iadd
  | Isub
  | Imul
  | Idiv
  | Imod
  | Fadd
  | Fsub
  | Fmul
  | Fdiv
  | Icmp of cmp
  | Fcmp of cmp
  | Band (** non-short-circuit boolean and (0/1 integers) *)
  | Bor
  | Imin
  | Imax
  | Fmin
  | Fmax

type unop = Ineg | Fneg | Bnot | Itof | Ftoi | Fsqrt | Fabs | Iabs

type instr =
  | Bin of binop * reg * operand * operand
  | Un of unop * reg * operand
  | Mov of reg * operand
  | Sel of reg * operand * operand * operand
      (** [d := if cond <> 0 then a else b] — produced by if-conversion *)
  | Load of reg * string * operand (** dst, array, index *)
  | Store of string * operand * operand (** array, index, value *)
  | Call of reg option * string * operand list
  | Send of W2.Ast.channel * operand
  | Recv of W2.Ast.channel * reg

type term =
  | Jump of int (** block index *)
  | Branch of operand * int * int (** condition (≠0), then, else *)
  | Ret of operand option

type block = { mutable instrs : instr list; mutable term : term }

type func = {
  name : string;
  params : (string * ty * reg) list;
  arrays : (string * int * ty) list; (** name, size, element type *)
  mutable blocks : block array;
  mutable reg_ty : ty array; (** type of each virtual register *)
  ret_ty : ty option;
}

type section = { sec_name : string; cells : int; funcs : func list }
(** A lowered section: the unit whose functions share a call graph. *)

val entry_block : int
(** Always [0]. *)

val num_regs : func -> int

val fresh_reg : func -> ty -> reg
(** Appends a virtual register of the given type to [reg_ty]. *)

val def_of : instr -> reg option
(** The register an instruction writes, if any. *)

val uses_of : instr -> reg list
(** Registers an instruction reads (with multiplicity). *)

val term_uses : term -> reg list

val successors : term -> int list
(** Successor block indices (deduplicated). *)

val has_side_effect : instr -> bool
(** Instructions that must not be removed even when their result is
    dead (stores, calls, channel operations). *)

val may_trap : instr -> bool
(** Instructions that can fault at runtime (division by a possibly-zero
    operand, square root) and therefore must not be speculated. *)

val commutative : binop -> bool
(** [op x y = op y x]: LVN and GCSE sort such operands. *)

val binop_to_string : binop -> string
val operand_to_string : operand -> string
val instr_to_string : instr -> string
val term_to_string : term -> string
val func_to_string : func -> string

val instr_count : func -> int
(** Instructions plus terminators: the basic size metric of the
    compilation cost model. *)

val instr_array : instr list -> instr array
(** [Array.of_list], filled from a constant so that a long block forces
    no minor collection. *)
