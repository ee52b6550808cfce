(** Iterative modulo scheduling — the software-pipelining heart of
    phase 3 (Rau's IMS with ejection).

    Operations of a single-block loop body are placed at times σ(op)
    such that every dependence edge (a → b, delay, dist) satisfies
    σ(b) ≥ σ(a) + delay − II·dist, with one operation per functional
    unit per II-slot.  Registers are physical (allocation happens
    first), so the wrapped anti-dependences bound every lifetime by II:
    the kernel is valid with the original register names, and the
    overlapped schedule of a constant-trip loop can be emitted flat.

    The search computes the exact recurrence-constrained MII with a
    Bellman–Ford feasibility test that stops at the first round whose
    parent graph (each node to the predecessor that last relaxed it)
    has a cycle: with strict improvements such a cycle has positive
    weight, so the answer is the full run's.  It applies a
    profitability cut-off (overlap must be able to recover at least half
    the critical path), and bounds its total effort.  Feasibility is monotone in II (edge
    weights delay − II·dist only fall as II grows), so the MII is found
    by testing the top of the range and bisecting, while the work
    charged is that of a linear search up from the lower bound. *)

type result = {
  ii : int; (** achieved initiation interval *)
  sigma : int array; (** issue time of each op within one iteration *)
  makespan : int; (** σ + latency, maximised *)
  attempts : int; (** placement trials: phase-3 work units *)
}

exception No_schedule of int
(** No schedule found (profitability cut, II range exhausted, or budget
    spent); the payload is the work spent trying — it still counts as
    compilation time. *)

val res_mii : Midend.Ir.instr array -> int
(** Resource-constrained lower bound on II. *)

val self_rec_mii : Ddg.t -> int
(** Self-edge recurrence lower bound. *)

val max_ii_slack : int

val mii : Ddg.t -> int * int
(** [(ii, work)]: the least II from [max res_mii self_rec_mii] to
    [max_ii_slack] above it that passes the exact recurrence test (no
    positive cycle under weights delay − II·dist), and the work a
    linear search up to it is charged, (edges/8 + 1) per II tried.
    @raise No_schedule with the work of trying the whole range when no
    II in it passes. *)

val run : Midend.Ir.instr array -> result
(** @raise No_schedule as described above. *)

val emit_flat : Midend.Ir.instr array -> result -> trip:int -> Mcode.wide array
(** The full overlapped schedule for [trip] iterations: op of iteration
    [j] at σ(op) + II·j.  Resource-legal by construction. *)
