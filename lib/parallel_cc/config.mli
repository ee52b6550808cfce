(** Configuration of one simulated compilation run: the cost model, the
    cluster, and the toggles used by the ablation benchmarks. *)

type t = {
  cost : Driver.Cost.model;
  stations : int; (** workstation pool size, master's included *)
  memory_model : bool; (** GC/paging slowdowns (ablation: off = 1.0) *)
  core_download : bool; (** Lisp core image fetched over the network *)
  ideal_network : bool; (** no contention, instant file server *)
  fine_grained : bool; (** split phases 2 and 3 into separate tasks *)
  opt_level : int;
  noise_seed : int; (** 0 = no measurement noise *)
  sched_policy : Sched.policy;
      (** dispatch scheduling applied to the plan before the section
          masters fork ({!Sched.Fcfs}, the default, keeps the paper's
          event schedule bit-identical) *)
  batch_threshold : float;
      (** {!Sched.Lpt_batch}'s cut-off: tasks estimated under this many
          phase-2+3 seconds are merged into shared dispatch units
          (default 60.0) *)
  static_cost : bool;
      (** rank and batch by the abstract interpretation's statically
          bounded cost ({!Sched.task_cost} with [~static:true]) instead
          of the measured work units (default [false]; meaningless
          under [Fcfs], which never consults the signal) *)
  faults : Netsim.Fault.plan;
      (** fault schedule wired into the cluster ({!Netsim.Fault.none} =
          the ideal host; anything else enables supervision in
          {!Parrun}) *)
  deadline_factor : float;
      (** a task is presumed lost after [factor × cost estimate] *)
  retry_budget : int; (** re-dispatches before sequential fallback *)
  retry_backoff_seconds : float; (** base of the exponential backoff *)
  spec_budget : int;
      (** misspeculations (speculative-attempt aborts) per task before
          the task's speculative edges harden to gated dispatch
          (default 2).  Must be at least 1 under [Sched.Dag_spec]
          ({!Parrun.run} rejects anything less); a run that should not
          speculate uses [Sched.Dag_lpt]. *)
  cache : Cache.t option;
      (** content-addressed compile cache ({!Cache}) shared across runs
          — pass the same store to successive runs to memoize phase-2/3
          artifacts by function content.  [None] (the default) charges
          no lookups and skips nothing, so the event schedule is
          bit-identical to a cacheless build.  Coarse grain only:
          [fine_grained] runs bypass the cache entirely (their split
          phase-2/phase-3 tasks do not produce whole-function
          artifacts). *)
  trace : Trace.t;
      (** span sink wired into the cluster and consulted by the runners
          ({!Trace.none} = no recording: emits are no-ops and the event
          schedule is untouched, so timings are bit-identical to an
          untraced build) *)
}

val default : t

val backoff_delay : t -> step:int -> float
(** Exponential backoff before re-dispatching a timed-out attempt:
    [retry_backoff_seconds × 2{^step}], where [step] counts the task's
    prior re-dispatches.  Monotone non-decreasing in [step] for any
    non-negative base. *)

val noise : t -> unit -> float
(** Deterministic multiplicative noise stream, mirroring the paper's
    repeated measurements (§4.2): a factor within ±4% of 1 on CPU
    times, or exactly 1 when [noise_seed = 0].  Each call advances the
    stream. *)

val cluster : t -> Netsim.Host.cluster
(** A fresh cluster per the configuration. *)

val cluster_slowdown : t -> Netsim.Host.cluster -> Netsim.Host.workstation -> float
(** Memory-pressure slowdown of one station, honouring the ablation
    toggles; the paging term is coupled to the whole cluster (diskless
    stations page through the shared file server). *)
