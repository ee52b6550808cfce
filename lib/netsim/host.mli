(** Workstations and the cluster pool.

    A workstation has one CPU (FCFS) and a fixed amount of physical
    memory; processes register their working sets so that CPU work can
    be slowed down by a caller-supplied factor reflecting paging and
    garbage collection (the cost model lives with the compiler driver —
    the host only tracks residency).

    A cluster can carry a {!Fault.plan}; crashed stations surface as
    {!Fault.Station_failed} compute outcomes and leave the pool, never
    as exceptions. *)

type workstation = {
  ws_id : int;
  cpu : Sync.resource;
  mem_mb : float;
  mutable resident_mb : float;
  mutable busy_seconds : float;
      (** accumulated CPU time: the paper's per-processor "CPU time" *)
  mutable crash_at : float; (** fault plan: crash time, [infinity] = never *)
  mutable reclaim_at : float; (** fault plan: owner-reclaim time *)
  mutable fault_slow : float -> float;
      (** fault plan: transient load factor at a simulated time *)
  mutable ws_trace : Trace.t;
      (** span sink for CPU work ({!Trace.none} = no recording; wired
          by {!cluster}) *)
}

val workstation : id:int -> mem_mb:float -> workstation

val memory_pressure : workstation -> float
(** Residency divided by physical memory (1.0 = full). *)

val add_resident : workstation -> float -> unit
val remove_resident : workstation -> float -> unit

val crashed : workstation -> now:float -> Fault.failure option
(** [Some failure] when the station's crash time has passed — used by
    fault-aware callers after network operations. *)

val available : workstation -> now:float -> bool
(** False once the station crashed or its owner reclaimed it. *)

val compute :
  ?tag:string ->
  Des.t ->
  workstation ->
  factor:(workstation -> float) ->
  seconds:float ->
  Fault.outcome
(** Run [seconds] of nominal CPU work.  The work executes in slices;
    before each slice [factor] is consulted (e.g. the GC/paging model
    given current residency) together with the fault plan's transient
    slowdown, so the effective time adapts as other processes come and
    go.  Returns [Fault.Station_failed] if the station crashes under
    the work (partial CPU is still charged to [busy_seconds]); the
    slice length, one nominal second, bounds detection latency.

    When the station carries a trace, one ["cpu"] span is recorded per
    call, labelled [tag] (a phase name), with the requested nominal
    seconds, the nominal seconds actually consumed, the slowed CPU
    seconds burned, and the outcome.
    @raise Invalid_argument on negative work. *)

type cluster = {
  stations : workstation array;
  ether : Net.ethernet;
  fs : Net.fileserver;
  free : int Queue.t;
  pool_waiters : (int -> unit) Queue.t;
  faults : Fault.plan;
  trace : Trace.t;
}
(** The workstation pool the section masters draw from, with the shared
    Ethernet and file server and the fault plan wired at creation. *)

val cluster :
  ?mem_mb:float ->
  ?ether:Net.ethernet ->
  ?fs:Net.fileserver ->
  ?faults:Fault.plan ->
  ?trace:Trace.t ->
  stations:int ->
  unit ->
  cluster
(** Station 0 — the master's own workstation — is never wired to the
    fault plan, so a sequential fallback always has a live machine.
    [trace] (default {!Trace.none}) is wired into every station, the
    Ethernet and the file server; the fault plan's own events are
    recorded up front (crash/reclaim instants, slowdown/brownout
    windows) since the schedule is static. *)

val claim : Des.t -> cluster -> workstation
(** Take a free workstation, blocking FCFS while none is available —
    the paper's first-come-first-served task distribution.  Stations
    that crashed or were reclaimed while queued are discarded. *)

val claim_prefer :
  rank:(workstation -> int) -> Des.t -> cluster -> workstation
(** Like {!claim}, but when several live stations are free, take the
    one [rank] scores highest (queue order breaks ties, so a constant
    rank degenerates to {!claim}).  Used by the locality-aware
    re-dispatch: a station that already holds a task's bytes — see
    {!Net.cached} — outranks a cold one.  When nothing is free the
    blocking discipline is exactly {!claim}'s. *)

val release_station : Des.t -> cluster -> workstation -> unit
(** Return a station to the pool (hand-off to a waiter first); a
    crashed or reclaimed station is dropped instead. *)

val lost_stations : cluster -> now:float -> int
(** Stations the fault plan removed from the pool by [now]. *)

val cpu_times : cluster -> float list
(** Busy seconds of every station that did any work. *)
