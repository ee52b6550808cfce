(** Dominator computation (iterative Cooper–Harvey–Kennedy).  Used by
    the loop analysis to find back edges and by the code-motion passes
    to reason about execution order. *)

type t

val compute : Ir.func -> t

val dominates : t -> int -> int -> bool
(** [dominates t a b] — does block [a] dominate block [b]?  Unreachable
    blocks dominate nothing. *)
