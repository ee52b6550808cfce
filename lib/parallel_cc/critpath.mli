(** Critical-path profiling over a finished trace.

    From a traced run (plus, optionally, the scheduled {!Plan.t}) the
    profiler reconstructs the blocking graph — every span's start was
    caused by exactly one of a predecessor's write-back, a pool grant,
    an Ethernet/file-server delay, a retry backoff window, or a
    speculation rollback — by walking backward from {!Trace.end_time}
    along the DES's exact shared timestamps.  The result is the
    end-to-end critical path as a chain of {!segment}s that tiles
    [0, end_time] exactly, with every second attributed to one
    {!bucket}; {!assert_exact} checks the float-exact sum invariant.

    On top of the path: {!what_ifs} projects upper-bound speedups with
    one cost class zeroed, {!dag_bound} computes the analysis-side
    bound from the Depan antichain levels, and {!top} names the tasks
    and phases holding the run back.  Everything here only reads a
    finished trace, so profiling can never perturb a timing. *)

type bucket =
  | Cpu  (** compute on the path; split by phase tag in the profile *)
  | Dependence_wait
      (** dispatch released by a dependence edge ([Plan.edges]) whose
          predecessor published strictly before the claim.  Rare by
          construction: a gated successor usually chains straight into
          its predecessor's write-back, which then carries the blame
          (the crossed edge is recorded in [p_dep_edges] either way). *)
  | Pool_wait  (** claim-to-grant on a contended workstation pool *)
  | Ether  (** Ethernet transfers on the path *)
  | Fs  (** file-server operations on the path *)
  | Backoff  (** retry backoff windows (crash/timeout recovery) *)
  | Rollback  (** speculation abort protocol windows *)
  | Master_serial
      (** untraced master work: forks, per-process startups, mailbox
          hops, dispatch serialization *)

val bucket_name : bucket -> string
val bucket_order : bucket list
(** The canonical order of the exact-sum invariant and every exporter:
    cpu, dependence_wait, pool_wait, ether, fs, backoff, rollback,
    master_serial. *)

type segment = {
  g_t0 : float;
  g_t1 : float;
  g_bucket : bucket;
  g_track : int;
  g_detail : string; (** phase tag, span name, or gap reason *)
  g_task : string option; (** enclosing task label, when attributable *)
}

type profile = {
  p_elapsed : float;
      (** the profiled window: the [~elapsed] anchor when given, else
          {!Trace.end_time} of the trace *)
  p_segments : segment list;
      (** the critical path, ascending; consecutive boundaries are the
          {e same} floats, first starts at 0, last ends at [p_elapsed] *)
  p_buckets : (string * float) list;
      (** per-bucket seconds in canonical order; folding them left to
          right yields [p_elapsed] {e exactly} (float equality) *)
  p_cpu_by_tag : (string * float) list; (** raw path sums, largest first *)
  p_dep_edges : (string * string) list;
      (** plan dependence edges the path crossed (task labels) *)
}

val of_trace : ?plan:Plan.t -> ?elapsed:float -> Trace.t -> profile
(** Profile a finished trace.  [plan] — the {e scheduled} plan, i.e.
    after {!Sched.schedule}, so task labels match the dispatched
    queues — enables dependence-edge naming and dependence-wait gap
    classification; without it those default to master-serial.
    [elapsed] anchors the walk (default {!Trace.end_time}): pass
    [Timings.elapsed] when you hold the run, because under timeouts a
    superseded attempt's queued claim can be granted {e after} the run
    completed by other means and record spans past the useful end —
    pure wasted work that must not masquerade as the critical path.
    @raise Failure when the bucket sums cannot be reconciled with the
    anchor beyond rounding scale (an attribution bug). *)

val assert_exact : profile -> unit
(** Check the invariants: buckets fold to [p_elapsed] exactly, every
    bucket is non-negative, and the segments tile [0, p_elapsed] with
    bit-identical shared boundaries.  @raise Failure on any breach. *)

(** {1 What-if upper bounds} *)

type whatif = {
  w_name : string;
      (** [free-comms], [infinite-stations], [zero-faults],
          [perfect-speculation] *)
  w_removed : float; (** critical-path seconds the scenario deletes *)
  w_elapsed : float; (** projected elapsed *)
  w_speedup : float; (** upper bound on the scenario's speedup *)
}

val what_ifs : profile -> whatif list
(** Re-walk the critical path with one cost class zeroed.  Deleting a
    class only from the recorded path is optimistic (the schedule would
    reroute onto a second-longest path), so each projection is a sound
    upper bound on what fixing that class alone could buy. *)

type dag_bound = {
  db_max_levels : int; (** deepest section chain; 1 = edge-free *)
  db_serial : float; (** sum of per-function phase-2+3 estimates *)
  db_chain : float; (** per-section sum over levels of the level max *)
  db_speedup : float; (** serial / chain: the analysis-side bound *)
}

val dag_bound : cost:Driver.Cost.model -> Driver.Compile.module_work -> dag_bound
(** The Depan bound from [si_levels]: with unlimited stations and free
    communication, elapsed compute cannot beat the sum over antichain
    levels of each level's longest function.  On edge-free programs
    ([db_max_levels = 1]) it agrees with the profile's view: the path
    crosses no dependence edge and carries no dependence-wait, so the
    infinite-stations what-if is limited by compute alone. *)

(** {1 Bottleneck report} *)

type hotspot = {
  h_label : string; (** task label, or the segment detail off-task *)
  h_bucket : string;
  h_reason : string; (** dominant blocking reason within the group *)
  h_track : int; (** track of the largest contributing segment *)
  h_seconds : float;
  h_share : float; (** of elapsed *)
}

val top : ?k:int -> profile -> hotspot list
(** The [k] (default 10) largest (task, bucket) contributions on the
    path, largest first. *)

val path_flows : profile -> (int * float * int * float) list
(** [(from_track, from_t, to_track, to_t)] for every hop of the path
    between tracks — feed to [Trace.to_chrome_json ~flows] so Perfetto
    draws the critical path as flow arrows. *)

(** {1 Renderers} *)

val bucket_table : profile -> Stats.Table.t
val top_table : ?k:int -> profile -> Stats.Table.t
val whatif_table : ?bound:dag_bound -> profile -> Stats.Table.t

val to_json :
  ?module_name:string ->
  ?policy:string ->
  ?processors:int ->
  ?top:int ->
  ?bound:dag_bound ->
  profile ->
  string
(** The profile as JSON, schema ["warpcc-profile/1"].  [elapsed] and
    the buckets print with [%.17g], so a consumer can re-fold the
    buckets in schema order and reproduce [elapsed] bit for bit (CI's
    profile-smoke job does exactly that). *)
