(** Data-dependence graphs over the operations of one basic block.

    Edges carry (delay, distance): a dependence from [a] to [b] with
    distance [d] means instance (b, iteration k+d) must issue no
    earlier than issue(a, iteration k) + delay.  Distance-0 edges order
    operations of one iteration; distance-1 edges wrap around the loop
    (any pair, either program order, self-edges included) and are what
    the modulo scheduler prices.  Each edge is listed once in the
    [succs] of its source and once in the [preds] of its destination;
    neither list has a promised order. *)

type t = {
  ops : Midend.Ir.instr array;
  succs : (int * int * int) list array; (** (dst, delay, dist) *)
  preds : (int * int * int) list array; (** (src, delay, dist) *)
}

type footprint
(** What one operation defines, reads and touches: everything a hazard
    depends on, computed once per operation. *)

val footprint : Midend.Ir.instr -> footprint
(** @raise Invalid_argument on a call (calls are control flow). *)

val footprints : Midend.Ir.instr array -> footprint array
(** {!footprint} of every op, in order. *)

val independent : int
(** What {!hazard} returns for an independent pair. *)

val hazard : footprint -> footprint -> int
(** Maximum delay of the register/memory/queue hazards between a first
    and a second operation, or {!independent}.  Allocates nothing. *)

val build : Midend.Ir.instr array -> t
(** The modulo scheduler's loop graph: every hazard pair at distance 0
    and the wrapped pairs at distance 1.  Each op is paired only with
    the ops that share a register, an array or the queues with it. *)

val straight : Midend.Ir.instr array -> t
(** The list scheduler's graph, distance 0 only: each op keeps an edge,
    with its full {!hazard} delay, from its nearest accesses only — the
    last writer of each register it reads or writes, the readers since
    that writer of the register it defines, the last store of its array
    (and, for a store, the loads since), and the previous queue op.
    Every dropped pair is implied by a chain of kept edges whose delays
    sum to at least its own, so heights, earliest cycles and release
    cycles, hence list schedules, are those over every hazard pair. *)

val heights : t -> int array
(** Critical-path height over distance-0 edges — the scheduling
    priority. *)
