(** Pluggable dispatch scheduling for the parallel compiler.

    The paper distributes tasks first come, first served and measures
    the consequences (§4.2.3): per-task overhead — core-image download,
    Lisp init, re-parse, write-back — reaches 70 % of elapsed time for
    tiny functions, and the longest function bounds the critical path.
    This module turns {!Driver.Cost.task_phase23_seconds} into a
    placement policy applied to a {!Plan.t} before the section masters
    fork; supervision, exactly-once write-back and tracing in
    {!Parrun} operate on the scheduled plan unchanged. *)

type policy =
  | Fcfs  (** the paper's first-come-first-served dispatch.
              {!schedule} returns the plan physically unchanged, so the
              event schedule — and therefore every timing — is
              bit-identical to the unscheduled compiler. *)
  | Lpt  (** longest processing time first: each section's task queue
             is stably sorted by descending cost estimate, so the
             longest function starts first and stops dominating the
             makespan tail.  Equal-cost tasks keep their FCFS order. *)
  | Lpt_batch
      (** LPT after tiny-function batching: tasks whose estimated
          phase-2+3 cost falls below the threshold are clustered into
          one dispatch unit per pool workstation (first-fit decreasing,
          spilling into the least-loaded unit once every station has
          one), amortizing the per-task overhead the paper measured. *)
  | Dag
      (** dependence-aware FCFS: task-level cycles induced by packing
          are merged, then tasks dispatch in stable topological order
          (smallest original position among the ready tasks first), and
          {!Parrun} gates each function master on its predecessors'
          completion events.  On an edge-free section this is the
          identity transformation: same order, no gating waits, every
          timing bit-identical to [Fcfs]. *)
  | Dag_lpt
      (** [Dag] composed with [Lpt_batch]: within each antichain level
          of the task DAG — whose members are pairwise independent —
          tasks are LPT-ordered and tiny ones batched, so overhead
          amortization never violates dependence order. *)
  | Dag_spec
      (** [Dag_lpt] with optimistic dispatch past
          {!Analysis.Depan.Speculative} edges: levelling uses only the
          proven edges (task cycles are still merged over the full
          set, and after batching over the non-cold ones, so no two
          staged attempts await each other), so speculative successors
          dispatch immediately and
          {!Parrun} runs them under a staged write-back/commit/abort
          protocol bounded by {!Config.t.spec_budget} (at least 1).
          Worst case — every speculation aborts — degrades to [Dag_lpt]
          behaviour. *)

val policies : policy list
(** All six policies, in ascending sophistication: [Fcfs; Lpt;
    Lpt_batch; Dag; Dag_lpt; Dag_spec] — the CLI's choice set. *)

type gating =
  | Ungated  (** dispatch never waits on a dependence edge *)
  | All  (** every dependence edge gates its successor's dispatch *)
  | Proven
      (** only the proven edges gate; dispatch runs past the
          speculative ones under {!Parrun}'s commit protocol *)

val gating : policy -> gating
(** Which dependence edges a policy promises to honour: {!Parrun}
    gates dispatch and arms speculation by it, and
    {!Traceview.violations} picks the matching race oracle.  [Ungated]
    for [Fcfs], [Lpt] and [Lpt_batch]; [All] for [Dag] and [Dag_lpt];
    [Proven] for [Dag_spec]. *)

val gates : gating -> Plan.edge_class -> bool
(** Does an edge of this class gate dispatch under the gating?  Never
    when [Ungated], always under [All], only {!Plan.Proven} edges under
    [Proven]. *)

val policy_name : policy -> string
(** ["fcfs"], ["lpt"], ["lpt+batch"], ["dag"], ["dag+lpt"],
    ["dag+spec"] — the names used by [warpcc simulate --sched] and the
    bench tables. *)

val task_cost : ?static:bool -> Driver.Cost.model -> Plan.task -> float
(** Estimated phases-2+3 seconds of one task — the signal every policy
    ranks and batches by.  With [~static:true] the measured work units
    are replaced by {!Driver.Cost.static_task_seconds}, the abstract
    interpretation's statically derived bound (default [false]). *)

val task_deps : (string * string) list -> Plan.task list -> int list array
(** Task-level dependence adjacency for one section's task queue,
    projected from function-level (before, after) edges — usually
    {!Plan.section_edges} of the scheduled plan: entry [j] lists, in
    ascending order, the task indices that must complete before task
    [j] may start.  Edges between functions of the same task vanish.
    {!Parrun} uses this to gate dispatch under the DAG policies. *)

val schedule :
  ?static:bool ->
  policy:policy ->
  cost:Driver.Cost.model ->
  threshold:float ->
  stations:int ->
  Plan.t ->
  Plan.t
(** Apply [policy] to a plan: [Fcfs] returns it physically unchanged;
    every other policy runs one pipeline per section — merge task
    cycles, level the task graph, then order (stable topological, or
    LPT with tiny-task batching within each antichain level).  [static]
    selects the statically bounded cost signal (see {!task_cost}).
    [threshold] is the batching cut-off in estimated seconds (tasks
    strictly below it are merged; ignored by policies that do not
    batch);
    [stations] is the cluster size including the master's own machine,
    capping batched dispatch units at one per pool station.  Function
    multisets per section are preserved by construction: scheduling
    permutes and merges tasks, it never drops or duplicates a
    function. *)
