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

type t = {
  tasks_per_section : (string * task list) list;
  estimate_used : bool;
  func_deps : (string * (string * string) list) list;
      (** per section: the phase-1 analyzer's function-level dependence
          edges by name — compile the first before the second.  Both
          plan constructors copy them from
          {!Driver.Compile.module_work.mw_analysis}, so every plan
          carries its DAG; FCFS/LPT ignore it, the DAG-aware policies
          in {!Sched} order and gate dispatch by it. *)
  spec_edges : (string * (string * string) list) list;
      (** the {!Analysis.Depan.Speculative} subset of [func_deps]:
          edges whose only reasons are data over-approximations.  The
          [dag+spec] policy dispatches past them under the commit
          protocol; every other policy gates on them as usual. *)
  hot_edges : (string * (string * string) list) list;
      (** the subset of [spec_edges] whose endpoints the uncapped
          analysis proves really share state — speculating past one
          aborts whenever the attempt overlapped its predecessor *)
}

val proven_deps : t -> (string * (string * string) list) list
(** [func_deps] minus [spec_edges]: the edges [dag+spec] still gates
    on. *)

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
