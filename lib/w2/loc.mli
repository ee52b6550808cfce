(** Source locations.  Every token, AST node and diagnostic carries one,
    so per-function diagnostics can be merged back into file order by
    the section masters. *)

type t = { file : string; line : int; col : int }

val make : file:string -> line:int -> col:int -> t

val dummy : t
(** The location of synthesized code. *)

val to_string : t -> string
(** ["file:line:col"]. *)


val compare : t -> t -> int
(** Order by file, then position. *)
