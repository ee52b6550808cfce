(** Partitioning and load balancing.

    The master's setup parse yields the module structure; tasks are the
    per-function phase-2/3 jobs.  Two placement policies: the paper's
    default (first come, first served, one function master per
    workstation) and the section-4.3 heuristic (estimate compile time
    from lines of code and structure, pack longest-first onto the
    available processors so several small functions share one function
    master). *)

type task = {
  t_section : string;
  t_funcs : Driver.Compile.func_work list; (** compiled together, in order *)
}

val label : task -> string
(** The task's identity: its head function's name.  Every task the
    plan constructors and {!Sched.schedule} build is non-empty; trace
    spans, placements and the trace oracles name a task by this. *)

type edge_class =
  | Proven
      (** a structural edge ({!Analysis.Depan.Proven}): every DAG-aware
          policy gates on it *)
  | Hot
      (** a {!Analysis.Depan.Speculative} edge whose endpoints the
          uncapped analysis proves really share state
          ({!Analysis.Depan.edge.e_hot}): [dag+spec] may dispatch past
          it, but such an attempt aborts whenever it overlapped its
          predecessor *)
  | Cold
      (** a speculative edge over a pair that shares no state: an
          attempt dispatched past it always commits *)

type t = {
  tasks_per_section : (string * task list) list;
  edges : (string * (string * string * edge_class) list) list;
      (** per section: the phase-1 analyzer's function-level dependence
          edges by name — compile the first before the second — each
          with its class, in analysis order.  Both plan constructors
          copy them from {!Driver.Compile.module_work.mw_analysis}, so
          every plan carries its DAG; FCFS/LPT ignore it, the DAG-aware
          policies in {!Sched} order and gate dispatch by it, and the
          [dag+spec] commit oracle reads the classes. *)
}

val edges_of :
  Analysis.Depan.t -> (string * (string * string * edge_class) list) list
(** The [edges] field both plan constructors fill in: every section's
    [si_edges] by name, [Proven] when {!Analysis.Depan.edge_confidence}
    says so, else [Hot] or [Cold] by {!Analysis.Depan.edge.e_hot}. *)

val section_edges :
  ?keep:(edge_class -> bool) -> t -> string -> (string * string) list
(** One section's edges of the classes [keep] accepts (default all), as
    (before, after) pairs in analysis order; [[]] for an unknown
    section. *)

val estimate : Driver.Compile.func_work -> float
(** The paper's compile-time proxy: lines of code weighted by
    structure. *)

val one_per_station : Driver.Compile.module_work -> t
(** The paper's default: one task per function, dispatched FCFS. *)

val grouped : Driver.Compile.module_work -> processors:int -> t
(** Distribute ~[processors] function masters over the sections in
    proportion to estimated work (at least one per section), packing
    each section's functions longest-processing-time-first. *)

val task_count : t -> int
(** Total tasks across all sections. *)

val for_processors :
  ?processors:int -> Driver.Compile.module_work -> t * int
(** The plan for [processors] function-master stations and that
    station count: {!grouped} onto them, or {!one_per_station} (one
    station per task) when [processors] is absent. *)

val task_loc : task -> int
(** Lines of code a task compiles (summed over its functions). *)
