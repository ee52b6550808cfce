(** Pretty printer producing valid W2 source.

    Round-tripping through {!Parser.module_of_string} is a test
    invariant, and the line count of the rendered text is the "lines of
    code" metric of the paper's section 4.1.  Output is built in one
    buffer with direct appends. *)

val module_to_string : Ast.modul -> string
val func_to_string : Ast.func -> string
val expr_to_string : Ast.expr -> string

val source_lines : string -> int
(** Physical line count of rendered source — the paper's LoC metric. *)

val module_loc : Ast.modul -> int
(** Lines of the module as this printer renders it. *)

val func_loc : Ast.func -> int
(** Lines of the function as this printer renders it. *)
