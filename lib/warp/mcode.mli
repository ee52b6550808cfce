(** Machine code: scheduled wide instructions over physical registers.

    Operations reuse the {!Midend.Ir.instr} shape — after register
    allocation every register index is physical (< {!Machine.num_regs}).
    A wide instruction carries at most one operation per functional
    unit.  Control flow lives in block terminators; blocks containing
    calls have been split so a call is always a terminator. *)

type wide = {
  alu : Midend.Ir.instr option;
  falu : Midend.Ir.instr option;
  fmul : Midend.Ir.instr option;
  mem : Midend.Ir.instr option;
  qio : Midend.Ir.instr option;
}

val empty_wide : wide
val slot : wide -> Machine.fu -> Midend.Ir.instr option
val with_slot : wide -> Machine.fu -> Midend.Ir.instr -> wide
val ops_of : wide -> Midend.Ir.instr list
val is_empty : wide -> bool

type mterm =
  | Tjump of int
  | Tbranch of Midend.Ir.operand * int * int
  | Tret of Midend.Ir.operand option
  | Tcall of {
      callee : string;
      args : Midend.Ir.operand list;
      dst : int option; (** receives the return value *)
      cont : int; (** block to continue at after the return *)
    }

type mblock = {
  code : wide array;
  mterm : mterm;
  mb_pipelined : bool;
      (** flat-emitted software-pipelined kernel: wide order interleaves
          iterations, so per-iteration dependence checks do not apply *)
}

type mfunc = {
  mf_name : string;
  param_locs : int list;
      (** physical registers in which arguments arrive *)
  mf_arrays : (string * int * Midend.Ir.ty) list;
      (** local arrays instantiated per activation *)
  mblocks : mblock array;
}

type image = {
  img_section : string;
  img_cells : int;
  funcs : mfunc array;
  symbols : (string * int) list; (** linker-resolved name -> index *)
}
(** A linked per-cell image: the code of one section, downloadable to
    every cell of the section's group. *)

val find_func : image -> string -> mfunc option

val wide_count : mfunc -> int
val image_wide_count : image -> int

val mfunc_to_string : mfunc -> string
