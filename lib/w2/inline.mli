(** Procedure inlining (the paper's section 5.1) and call-graph
    pruning.

    A callee is inlinable when it is small, calls no user function
    (builtins are fine, in expressions and as statements),
    declares no array locals, and returns only as its last statement.
    A call site is expanded when its evaluation point is unconditional
    within its statement — not under the short-circuit right operand of
    [and]/[or] and not in a [while] condition.  Expansion preserves
    semantics exactly (argument evaluation order, channel traffic,
    fresh zero-initialized locals per activation). *)

type stats = {
  mutable inlined : int; (** call sites expanded *)
  mutable skipped : int; (** call sites left alone *)
}

val default_max_lines : int
(** Size threshold below which a function is considered "small" (45,
    the upper end of the user program's small functions). *)

val inlinable : max_lines:int -> Ast.func -> bool

val expand_module : ?max_lines:int -> Ast.modul -> Ast.modul * stats
(** Expand eligible call sites throughout every section.  Inlined
    callees are kept (they may still be called from skipped sites or
    serve as entry points); see {!prune_section}. *)

val prune_section : roots:string list -> Ast.section -> Ast.section
(** Drop functions unreachable (by direct calls) from [roots] — the
    grain-coarsening companion of {!expand_module}. *)
