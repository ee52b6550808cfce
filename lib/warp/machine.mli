(** Machine description of one Warp-like processing element.

    The cell is a wide-instruction-word machine: one operation may
    issue per functional unit per cycle.  Units are pipelined — an
    operation issued at cycle [t] writes its result register at
    [t + latency], and a new operation may issue on the same unit at
    [t + 1].  Control (branches, calls, returns) occupies the cycle
    after a block's last wide instruction; the schedule pads each block
    so all writes have landed before control transfers.

    Registers form one windowed file: a call pushes a fresh window (the
    hardware analogue of the Lisp compiler's caller-save-everything
    convention), so calls clobber nothing. *)

type fu = ALU | FALU | FMUL | MEM | QIO

val all_fus : fu list
val fu_to_string : fu -> string

val num_regs : int
(** 64 general registers per window. *)

val num_allocatable : int
(** [num_regs] less 4 scratch registers; the allocator's default
    budget. *)

val queue_capacity : int
(** Entries per inter-cell queue. *)

val fu_of : Midend.Ir.instr -> fu
(** The unit an operation issues on.
    @raise Invalid_argument for calls (control, not an FU op). *)

val latency : Midend.Ir.instr -> int
(** Cycles from issue to write-back: ALU 1 (imul 4, idiv/imod 12),
    FALU 5, FMUL 5 (fdiv 12, fsqrt 15), load 3, store 1, queue ops 1. *)
