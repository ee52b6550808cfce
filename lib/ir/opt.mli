(** Optimization pipeline for phase 2.

    Runs local cleanup (constant folding, local value numbering, global
    constant propagation, dead-code elimination, CFG simplification) to
    a fixpoint, then the loop optimizations (invariant code motion,
    strength reduction and — at the highest level — full unrolling),
    followed by a final cleanup round.

    Levels:
    - [0] no optimization (flowgraph construction only)
    - [1] local cleanup
    - [2] + if-conversion, loop-invariant code motion and strength
      reduction (default)
    - [3] + loop unrolling *)

type stats = {
  mutable rounds : int;
  mutable folded : int;
  mutable numbered : int; (** LVN rewrites *)
  mutable propagated : int; (** global constant propagation *)
  mutable cse_global : int; (** cross-block CSE rewrites *)
  mutable eliminated : int; (** dead instructions *)
  mutable simplified : int; (** CFG edits *)
  mutable if_converted : int; (** branch diamonds turned into selects *)
  mutable hoisted : int;
  mutable reduced : int; (** strength reductions *)
  mutable unrolled : int;
  mutable work : int;
      (** instruction visits across all passes — the deterministic
          work-unit measure the compilation cost model converts to
          simulated seconds *)
}

val empty_stats : unit -> stats
val total_changes : stats -> int

val optimize : ?level:int -> ?verify_each:bool -> Ir.func -> stats
(** Optimize in place.  With [~verify_each:true], {!Irverify.check_func}
    runs on the input and again after every pass.
    @raise Irverify.Invalid naming the pass that broke an invariant. *)

val optimize_section :
  ?level:int -> ?verify_each:bool -> Ir.section -> stats list

