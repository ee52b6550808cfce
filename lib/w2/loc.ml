(* Source locations.  Every token, AST node and diagnostic carries one so
   that the section masters can merge per-function diagnostics back into
   file order, as the paper's section masters do for compiler output. *)

type t = { file : string; line : int; col : int }

let make ~file ~line ~col = { file; line; col }
let dummy = { file = "<none>"; line = 0; col = 0 }
let to_string { file; line; col } = Printf.sprintf "%s:%d:%d" file line col

(* Order by position within one file; used to sort merged diagnostics. *)
let compare a b =
  match String.compare a.file b.file with
  | 0 -> ( match compare a.line b.line with 0 -> compare a.col b.col | c -> c)
  | c -> c
