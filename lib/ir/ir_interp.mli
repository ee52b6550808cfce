(** IR interpreter.

    Executes an {!Ir.section} with the same observable semantics as
    {!W2.Interp} runs the source: same results, same channel traffic,
    same error conditions.  Every optimization pass is
    differential-tested by comparing the two on random programs. *)

type value = Vi of int | Vf of float

exception Error of string
exception Out_of_fuel

type channels = {
  recv : W2.Ast.channel -> value;
  send : W2.Ast.channel -> value -> unit;
}

val null_channels : channels

val value_to_string : value -> string

val eval_bin : Ir.binop -> value -> value -> value
(** Dynamic semantics of a binary operation (shared with the cell
    simulator).  @raise Error on type or arithmetic faults. *)

val eval_un : Ir.unop -> value -> value

val run_function :
  ?fuel:int ->
  ?channels:channels ->
  Ir.section ->
  name:string ->
  args:value list ->
  value option
(** Run one function; [fuel] bounds executed instructions.
    @raise Out_of_fuel / @raise Error as the names suggest. *)
