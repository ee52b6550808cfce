(* Machine description of one Warp-like processing element.

   The cell is a wide-instruction-word machine: one operation may issue
   per functional unit per cycle.  Functional units are pipelined — an
   operation issued at cycle t writes its result register at t + latency,
   and a new operation may issue on the same unit at t + 1.

   Units:
     ALU    integer arithmetic, comparisons, moves       (latency 1;
            integer multiply 4, divide/mod 12 — making the strength
            reduction of the optimizer worthwhile)
     FALU   float add/sub/compare/min/max/abs/neg, conversions (latency 5)
     FMUL   float multiply (5), divide (12), square root (15)
     MEM    local-memory load (3) and store (1)
     QIO    systolic queue send/receive (1)

   Control (branches, calls, returns) occupies the final instruction of
   a block; the schedule pads each block so that all writes have landed
   before control transfers (the classic "clean block boundary" model).

   Registers: one windowed file of [num_regs] general registers.  A call
   pushes a fresh window (the hardware equivalent of the Lisp compiler's
   caller-save-everything convention), so calls clobber nothing. *)

type fu = ALU | FALU | FMUL | MEM | QIO

let all_fus = [ ALU; FALU; FMUL; MEM; QIO ]

let fu_to_string = function
  | ALU -> "alu"
  | FALU -> "falu"
  | FMUL -> "fmul"
  | MEM -> "mem"
  | QIO -> "qio"

let num_regs = 64

(* Registers reserved for spill-code temporaries. *)
let num_scratch_regs = 4
let num_allocatable = num_regs - num_scratch_regs

(* Capacity of the inter-cell queues (Warp's queues were small). *)
let queue_capacity = 32

(* Functional unit and latency of each (register-allocated) IR
   instruction.  Calls are control, not FU operations. *)
let fu_of (instr : Midend.Ir.instr) : fu =
  match instr with
  | Midend.Ir.Bin ((Fadd | Fsub | Fmin | Fmax), _, _, _) -> FALU
  | Midend.Ir.Bin (Fcmp _, _, _, _) -> FALU
  | Midend.Ir.Bin ((Fmul | Fdiv), _, _, _) -> FMUL
  | Midend.Ir.Bin ((Iadd | Isub | Imul | Idiv | Imod | Band | Bor | Imin | Imax), _, _, _)
  | Midend.Ir.Bin (Icmp _, _, _, _) ->
    ALU
  | Midend.Ir.Un ((Fneg | Fabs | Itof | Ftoi), _, _) -> FALU
  | Midend.Ir.Un (Fsqrt, _, _) -> FMUL
  | Midend.Ir.Un ((Ineg | Bnot | Iabs), _, _) -> ALU
  | Midend.Ir.Mov _ | Midend.Ir.Sel _ -> ALU
  | Midend.Ir.Load _ | Midend.Ir.Store _ -> MEM
  | Midend.Ir.Send _ | Midend.Ir.Recv _ -> QIO
  | Midend.Ir.Call _ -> invalid_arg "Machine.fu_of: calls are control flow"

let latency (instr : Midend.Ir.instr) : int =
  match instr with
  | Midend.Ir.Bin ((Iadd | Isub | Band | Bor | Imin | Imax), _, _, _) -> 1
  | Midend.Ir.Bin (Icmp _, _, _, _) -> 1
  | Midend.Ir.Bin (Imul, _, _, _) -> 4
  | Midend.Ir.Bin ((Idiv | Imod), _, _, _) -> 12
  | Midend.Ir.Bin ((Fadd | Fsub | Fmin | Fmax), _, _, _) -> 5
  | Midend.Ir.Bin (Fcmp _, _, _, _) -> 5
  | Midend.Ir.Bin (Fmul, _, _, _) -> 5
  | Midend.Ir.Bin (Fdiv, _, _, _) -> 12
  | Midend.Ir.Un ((Ineg | Bnot | Iabs), _, _) -> 1
  | Midend.Ir.Un ((Fneg | Fabs), _, _) -> 5
  | Midend.Ir.Un ((Itof | Ftoi), _, _) -> 5
  | Midend.Ir.Un (Fsqrt, _, _) -> 15
  | Midend.Ir.Mov _ | Midend.Ir.Sel _ -> 1
  | Midend.Ir.Load _ -> 3
  | Midend.Ir.Store _ -> 1
  | Midend.Ir.Send _ | Midend.Ir.Recv _ -> 1
  | Midend.Ir.Call _ -> invalid_arg "Machine.latency: calls are control flow"
