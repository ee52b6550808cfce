(** Control-flow-graph utilities over {!Ir.func}: successor/predecessor
    maps, reachability, unreachable-block elimination and jump
    threading.  Passes renumber blocks, so indices are only stable
    between passes. *)

val successors : Ir.func -> int list array
val predecessors : Ir.func -> int list array

val reachable : Ir.func -> bool array
(** Blocks reachable from the entry. *)

val map_term_labels : (int -> int) -> Ir.term -> Ir.term
(** Apply a relabeling to a terminator's targets. *)

val remove_unreachable : Ir.func -> int
(** Drop unreachable blocks and renumber; returns how many were
    removed. *)

val simplify : Ir.func -> int
(** Bypass empty forwarding blocks, then {!remove_unreachable}, then
    merge blocks into unique jumping predecessors; returns the total
    count of rewritten edges, removed and merged blocks.  The
    normalization run between optimization passes. *)

val reverse_postorder : Ir.func -> int list
(** Reverse postorder of the reachable blocks, entry first. *)
