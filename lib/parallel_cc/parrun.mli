(** The parallel compiler on the simulated host (paper, section 3.2):
    master → section masters → function masters, with FCFS workstation
    claiming, per-process Lisp startup, source re-parsing, result
    combining and the sequential phases 1 and 4 in the master.  A
    function-master attempt runs the {!Lisp} steps in order — claim,
    start Lisp, fetch the source (or skip it on a warm station),
    re-parse, compute phases 2+3 with a compile-cache {!Lisp.lookup} per
    function, then stage or write back — and the sequential fallback
    is a {!Lisp.compute} per function and a {!Lisp.write_back}.

    The plan is passed through {!Sched.schedule} before the section
    masters fork: {!Config.t.sched_policy} selects FCFS dispatch (the
    paper's behaviour, event schedule bit-identical), LPT ordering, or
    LPT with tiny-function batching, and on retries under a non-FCFS
    policy the re-dispatch prefers — and skips re-downloads on — a
    station that already holds the task's bytes ({!Netsim.Net.cached}).

    With {!Config.t.fine_grained} set, each task splits into a phase-2
    and a phase-3 task connected by an IR file on the server — the
    "finer grain parallelism" the paper's section 5 anticipates: the
    phase-2 master releases its station before the phase-3 master
    claims one, so stages of different tasks pipeline through a small
    pool, at the price of a second Lisp startup and the IR shipping.

    Every task runs under a supervisor in its section master.  Each
    attempt reports one of three verdicts: completed, lost (its station
    crashed, or the watchdog's deadline passed — armed, from the cost
    model, only under a non-empty {!Config.t.faults}) or aborted;
    verdicts about an attempt the supervisor gave up on are ignored.
    A lost attempt is re-dispatched FCFS with exponential backoff up to
    {!Config.t.retry_budget}, then the task falls back to the master's
    own Lisp, whose station is never faulted, so the compilation
    terminates with identical output under any fault plan.  Write-back
    is idempotent: every attempt ends at one settle point, where an
    attempt beaten by another or by the fallback is superseded (its CPU
    goes to [wasted_cpu]) and otherwise claims the completion token.

    Under {!Sched.Proven} gating ({!Sched.Dag_spec}) an attempt whose
    speculative predecessors are not all durably complete at claim
    time stages its output in a versioned buffer on the file server.
    The settle point first awaits the first genuinely conflicting
    ("hot") predecessor still pending at claim time, if any, then
    aborts (quarantines the stale version, charges the attempt's CPU,
    relaunches at once without touching the retry budget) — or, with
    no hot predecessor, commits (a version-pointer flip promotes the
    staged artifact, exactly once).  After {!Config.t.spec_budget}
    aborts the supervisor awaits every speculative predecessor before
    relaunching, so the task no longer speculates (dag+lpt style).

    Every counted event is appended to a run {!Timings.log} by the
    same call that emits its trace instant or span, and
    {!Timings.run} is one fold over that log. *)

type outcome = {
  run : Timings.run;
  station_of_task : (string * int) list;
      (** head function of each task → workstation id; fine-grained
          phase-3 placements appear as ["name#p3"] *)
  scheduled : Plan.t;
      (** the plan the master dispatched: {!schedule} of the input
          plan, whose task labels ({!Plan.label}) the trace spans
          carry *)
}

val schedule : Config.t -> Plan.t -> Plan.t
(** {!Sched.schedule} under the config's policy, cost model, batch
    threshold and pool size.
    @raise Invalid_argument under {!Sched.Dag_spec} with
    {!Config.t.spec_budget} below 1. *)

val master_process :
  Lisp.host -> Driver.Compile.module_work -> Plan.t ->
  on_finish:(float -> unit) -> unit -> unit
(** The spawnable master body; several can share one host (the
    combined strategy of the parallel-make study).  The plan is
    dispatched as given, so pass it through {!schedule} first. *)

val run : Config.t -> Driver.Compile.module_work -> Plan.t -> outcome
(** One parallel compilation under {!Lisp.simulate}, its
    {!Timings.run} folded from the run's log.  When the run starts on
    an empty trace, the trace must show no {!Traceview.violations} of
    the policy's gating.
    @raise Invalid_argument under {!Sched.Dag_spec} with
    {!Config.t.spec_budget} below 1.
    @raise Failure listing the violations otherwise. *)
