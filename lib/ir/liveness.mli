(** Backward liveness dataflow over virtual registers, on word bitsets.
    Drives dead-code elimination, the loop-invariant safety checks and,
    in the back end, live-interval construction for register allocation
    and block-local renaming.

    A register set is an [int array] with one bit per register,
    [Sys.int_size] registers to a word, sized by {!Ir.num_regs}.  The
    solver reaches the least fixpoint of the usual equations
    ([out = ∪ in(succ)], [in = use ∪ (out − def)]). *)

type set = int array

val create : int -> set
(** The empty set over [n] registers. *)

val mem : set -> int -> bool
val add : set -> int -> unit
val remove : set -> int -> unit

val iter : (int -> unit) -> set -> unit
(** In increasing register order. *)

type t = {
  live_in : set array; (** registers live at each block entry *)
  live_out : set array; (** registers live at each block exit *)
}

val compute : Ir.func -> t

val sweep : t -> Ir.func -> int -> (Ir.instr -> set -> unit) -> unit
(** [sweep t f b visit] walks block [b] backwards from its live-out
    plus its terminator's uses, calling [visit instr after] with the
    registers live immediately {e after} [instr].  [after] is one
    mutable set, updated in place between calls: copy it to keep it.
    Every instruction's uses count, whether or not [visit] deems it
    dead. *)
