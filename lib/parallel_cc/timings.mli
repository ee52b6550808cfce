(** Timing results of one simulated compilation and the overhead
    decomposition of the paper's section 4.2.3. *)

type run = {
  elapsed : float; (** wall-clock ("user") time *)
  cpu_per_station : float list; (** busy seconds of each station used *)
  master_cpu : float; (** setup parse + scheduling *)
  section_cpu : float; (** section-master work *)
  extra_parse_cpu : float; (** function masters re-parsing *)
  stations_used : int;
  dispatch_units : int;
      (** function-master tasks actually launched — after any
          {!Sched.Lpt_batch} merging, so under batching this is less
          than the plan's task count; 1 for a sequential run *)
  retries : int; (** task re-dispatches after crash or timeout *)
  stations_lost : int; (** stations crashed or reclaimed by run's end *)
  fallback_tasks : int; (** tasks finished sequentially on the master *)
  wasted_cpu : float;
      (** CPU seconds burned by attempts whose output was lost (crashed,
          superseded by a re-dispatch, or rolled back by the
          speculation commit oracle) *)
  spec_dispatched : int;
      (** attempts launched past a speculative dependence edge
          ([dag+spec] only; 0 everywhere else) *)
  spec_committed : int;
      (** speculative attempts whose staged output won the commit
          check and became the durable write-back *)
  spec_rolled_back : int;
      (** speculative attempts the commit oracle aborted; their CPU is
          charged to [wasted_cpu] and the task re-dispatches *)
  cache_hits : int;
      (** functions whose phase-2/3 artifact came from the compile
          cache ({!Config.t.cache}): their compute was skipped and an
          artifact transfer charged instead; 0 when the cache is off *)
  cache_misses : int;
      (** functions looked up in the compile cache but computed —
          includes the invalidated ones *)
  cache_invalidated : int;
      (** misses whose function previously published a {e different}
          key: dependency-aware invalidations after an edit, a subset
          of [cache_misses] *)
}

val zero : run
(** Every field zero or empty: the base the runners fill in. *)

(** {1 The run log}

    Both runners count through one log: every counted event is appended
    by the same call that emits its trace instant or span, and a
    {!run}'s counters are one {!tally} over the log. *)

type overhead =
  | Master  (** the master's setup parse and scheduling *)
  | Section  (** section-master work *)
  | Reparse  (** function masters re-parsing their share *)
(** The implementation-overhead CPU of the paper's section 4.2.3. *)

type event =
  | Overhead of overhead * float  (** nominal CPU seconds *)
  | Retry
  | Timeout
  | Attempt_lost
  | Wasted of float  (** CPU an attempt burned for nothing *)
  | Fallback
  | Spec_dispatch
  | Spec_commit
  | Spec_abort
  | Cache_hit of { func : string; key : string }
  | Cache_miss of { func : string; key : string; invalidated : bool }
  | Cache_store of { func : string; key : string }
  | Placement of (string * int)  (** task head function, station *)

type log
(** Append-only: the counted events of one or more compilations, in the
    order they happened. *)

val empty_log : unit -> log

val record :
  log ->
  Trace.t ->
  track:int ->
  now:float ->
  ?task:string ->
  ?attempt:int ->
  ?t0:float ->
  event ->
  unit
(** Append the event and, when tracing, emit it on [track]: as an
    instant at [now] (category ["cache"] for the compile-cache events,
    ["task"] otherwise), or as a span from [t0] to [now] for
    [Fallback], [Spec_commit] and [Spec_abort].  [Overhead] and
    [Placement] emit nothing: the compute and claim spans already show
    them. *)

val tally : log -> run -> run * (string * int) list
(** Fold the log's counters into the given run, in append order (so
    every float sum is reproducible bit for bit), and collect its
    placements. *)

type comparison = {
  processors : int; (** stations available to function masters *)
  seq : run;
  par : run;
  speedup : float;
  total_overhead : float; (** parallel elapsed − ideal *)
  impl_overhead : float;
      (** master + section masters + re-parses (CPU) *)
  sys_overhead : float; (** total − implementation *)
  rel_total_overhead : float; (** percent of parallel elapsed *)
  rel_sys_overhead : float;
}

val ideal_time : seq:run -> processors:int -> float
(** Perfect division of the sequential elapsed time over the
    processors carrying function masters. *)

val compare_runs : processors:int -> seq:run -> par:run -> comparison

val comparison_table : comparison -> Stats.Table.t
(** The section 4.2.3 decomposition of the parallel run as a
    quantity/seconds table (the two percentages in percent). *)

val max_cpu : run -> float
(** The busiest station's CPU seconds — the per-processor CPU time the
    paper's figures report. *)

val comparison_to_json : comparison -> string
(** The comparison as a JSON document (schema ["warpcc-simulate/3"]:
    /2 plus the three compile-cache counters per run), with both runs
    inlined and floats printed to round-trip exactly — the
    machine-readable face of [warpcc simulate --json]. *)
