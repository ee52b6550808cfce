(** Flow- and field-sensitive abstract interpretation over the W2 AST.

    {!Depan} licenses parallel compilation from flow-{e insensitive}
    effect summaries: any two functions touching the same section
    global draw a [global_conflict] edge even when their accesses are
    provably disjoint, and any two functions whose text mentions a
    channel draw a [channel_pair] edge even when the channel operation
    is dead.  This module sharpens those proofs with three cooperating
    abstract domains:

    - an {b array-region domain} — per-global may-read/may-write
      element sets represented as unions of integer intervals, widened
      on loops — that turns element-disjoint accesses into refuted
      conflicts;
    - a {b channel-protocol domain} — send/receive multiplicity
      intervals per systolic channel — that refutes channel pairings
      whose operations can never execute;
    - a {b static cost domain} — loop-bound × body-cost intervals —
      that bounds how many statement executions a call of the function
      can perform, a statically derived stand-in for the dynamic
      compile-cost signal the scheduler ranks by.

    The interpretation is flow-sensitive (constant conditions prune
    branches, counted loops contribute trip-count intervals) and
    interprocedurally closed by a fixpoint with widening, so recursion
    terminates at [top] instead of diverging.  Everything here
    over-approximates: a refutation ("these regions are disjoint",
    "this channel is silent") holds on every execution, which is what
    lets {!Depan} delete the corresponding edge soundly. *)

(** {1 Intervals} *)

type itv = { lo : int option; hi : int option }
(** Integer interval; [None] bounds are -/+infinity.  Invariant: when
    both bounds are finite, [lo <= hi]. *)

val itv_const : int -> itv
val itv_top : itv
val itv_zero : itv
val itv_join : itv -> itv -> itv
val itv_widen : itv -> itv -> itv
(** [itv_widen old fresh]: bounds that moved since [old] jump to
    infinity, guaranteeing fixpoint termination. *)

val itv_equal : itv -> itv -> bool
val itv_to_string : itv -> string
(** ["[0,7]"], ["[1,+inf)"], ... *)

(** {1 Array regions} *)

type region =
  | Empty  (** no element accessed *)
  | Slices of itv list  (** union of element-index intervals, sorted,
                            non-overlapping, non-adjacent *)
  | All  (** whole object (every scalar access; the widened top) *)

val region_union : max_intervals:int -> region -> region -> region
(** Normalized union; more than [max_intervals] disjoint slices widen
    to {!All} (the precision knob). *)

val regions_disjoint : region -> region -> bool
(** No element is in both regions — the refutation {!Depan} needs to
    prune a [global_conflict] edge. *)

val region_equal : region -> region -> bool
val region_to_string : region -> string

(** {1 Function summaries} *)

type chan_use = {
  cu_send : itv;  (** how many sends one call may perform *)
  cu_recv : itv;
}

type purity = Pure | Read_only | Effectful

val purity_to_string : purity -> string
(** ["pure"] / ["read_only"] / ["effectful"]. *)

type summary = {
  s_reads : (string * region) list;
      (** per section global, sorted by name; absent means {!Empty} *)
  s_writes : (string * region) list;
  s_x : chan_use;
  s_y : chan_use;
  s_cost : itv;
      (** abstract statement executions of one call, calls included *)
}

val read_region : summary -> string -> region
val write_region : summary -> string -> region
val access_region : summary -> string -> region
(** Union of read and write regions (already normalized). *)

val chan_silent : summary -> W2.Ast.channel -> bool
(** The function provably performs zero operations on the channel:
    both multiplicity upper bounds are 0.  Refutes [channel_pair]. *)

val summary_purity : summary -> purity
(** {!Pure} when the summary proves no global access and silent
    channels; {!Read_only} when only reads remain. *)

val conflict_free : summary -> summary -> bool
(** No global with a write/any-access overlap between the two
    summaries and no channel both can touch — the targeted discharge
    of a blanket [summary_limit] edge. *)

val conflicts : summary -> summary -> string list * W2.Ast.channel list
(** The couplings that are {e not} refuted: globals whose
    write/any-access overlap survives and channels both functions may
    operate on.  [conflict_free a b] iff both lists are empty. *)

val global_conflict_refuted : summary -> summary -> string -> bool
(** Both write-vs-access overlaps on the named global are refuted by
    disjoint regions. *)

val cost_units : itv -> int
(** A scalar estimate from a cost interval: the midpoint, or [4 × lo]
    when the upper bound is infinite (an unbounded loop still dominates
    a straight line).  Always at least 1. *)


(** {1 Analysis} *)

val default_max_intervals : int
(** 8 — the slices per region the dependence analyzer runs with. *)

val analyze_section :
  ?max_intervals:int -> W2.Ast.section -> (string * summary) list
(** One summary per function, in section order, interprocedurally
    closed over intra-section calls by {!Digraph.solve}, the solver
    Depan and Modan close their summaries with: callee SCCs first, so
    a caller is summarized over its callees' final summaries.  Widening
    is per SCC: from a cycle's [(2n + 5)]-th sweep on ([n] the
    section's function count), a still-moving summary is widened.
    Parameters are unknown ([top]), so summaries are
    context-insensitive and a single fixpoint serves every call site. *)
