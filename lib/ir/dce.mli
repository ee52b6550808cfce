(** Global dead-code elimination based on liveness.

    A pure instruction whose destination is dead immediately after it
    is removed.  Stores, calls, sends and receives always stay (calls
    can carry channel traffic; a receive consumes queue data even if
    the value is unused).  One backward bitset sweep per block; the
    uses of a removed instruction still count as live above it. *)

val run : Ir.func -> int
(** Returns the number of instructions removed. *)
