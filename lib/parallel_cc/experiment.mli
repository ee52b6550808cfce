(** Drivers for every experiment in the paper's evaluation (section 4)
    plus the extension studies.

    Each driver compiles the test programs with the real compiler (work
    measurement, cached — it is deterministic), then plays sequential
    and parallel compilation on the simulated 1989 host, repeating each
    measurement under the noise model and averaging (the paper's
    protocol, section 4.2).

    Every driver but {!measure} plays the paper's fixed host,
    {!Config.default}, and fixes its own program sizes, counts and pool
    sizes, named in its description. *)

type point = { n_functions : int; comparison : Timings.comparison }

val s_program_work :
  size:W2.Gen.size -> count:int -> unit -> Driver.Compile.module_work
(** The compiled-and-measured S_n program (cached). *)

val user_program_work : unit -> Driver.Compile.module_work

val measure :
  ?cfg:Config.t -> ?processors:int -> Driver.Compile.module_work ->
  Timings.comparison
(** One sequential-versus-parallel comparison.  Without [processors]:
    one function master per workstation.  With [processors]: the
    grouped plan of section 4.3 on a pool of that size (tasks queue
    FCFS when they outnumber stations). *)

val function_counts : int list
(** The paper's x axis: 1, 2, 4, 8. *)

val size_series : W2.Gen.size -> point list
(** Figures 3-5/12-13 (times) and the rows of 6-10/14-16. *)

val user_program : unit -> point list
(** Figure 11: 2, 3, 5 and 9 processors on the section-4.3 program. *)

val saturation : unit -> (int * float) list
(** Section 4.2.2: parallel elapsed time of S_8 of f_medium versus pool
    size (1 to 12 stations). *)

(** {1 Ablations (DESIGN.md section 5)} *)

type ablation = { ab_name : string; ab_cfg : Config.t }

val ablations : ablation list
(** baseline / no-memory-model / no-core-download / ideal-network. *)

(** {1 Section 5.1: procedure inlining} *)

type inlining_study = {
  baseline : Timings.comparison;
  inlined : Timings.comparison;
  baseline_functions : int;
  inlined_functions : int;
  calls_inlined : int;
}

val run_inlining_study : unit -> inlining_study
(** The many-small-functions program, compiled as written and after
    inlining + pruning. *)

(** {1 Section 3.4: parallel make coexistence} *)

val run_make_study : unit -> Makerun.result list
(** The four {!Makerun} build strategies on a four-module system and a
    ten-station pool. *)

(** {1 Section 5: finer-grain parallelism} *)

type grain_point = {
  gp_stations : int;
  coarse : float; (** elapsed, phases 2+3 fused (the paper's design) *)
  fine : float; (** elapsed, phases 2 and 3 as separate tasks *)
}

val run_grain_study : unit -> grain_point list
(** S_8 of f_medium with phases 2+3 fused and split, on 3, 5 and 9
    stations. *)

(** {1 Sweep rows}

    Every sweep below returns one row per simulated point: an ordered
    list of named values, written to its [BENCH_*.json] file as one
    JSON object per row, fields in list order.  Every sweep is seeded
    (noise seed 3) and therefore reproducible bit for bit. *)

type row = (string * Stats.Json.t) list

val speedup_row : W2.Gen.size -> point -> row
(** One {!size_series} point as a [BENCH_parallel.json] speedup row. *)

(** {1 Fault tolerance} *)

val fault_sweep : unit -> row list
(** Elapsed-time inflation (elapsed / fault-free elapsed), recovery work
    and wasted CPU of the parallel compiler compiling S_8 of f_medium
    under FCFS on 2/4/8/16-station pools
    as the crash rate ({!Netsim.Fault.random}) grows through 0, 0.25,
    0.5 and 1.0. *)

(** {1 Scheduling policies} *)

val sched_sweep : unit -> row list
(** Tiny/small/large/huge S_n programs and the user program on pools
    smaller than the task count, the regime where scheduling order and
    batching can matter, under [fcfs], [lpt] and [lpt+batch] with
    {!Sched.batch_threshold}.  Series names read e.g. ["tiny8p4"] = S_8 of tiny
    functions, pool of 4; [speedup_vs_fcfs] is 1.0 for FCFS. *)

(** {1 Dependence-aware dispatch} *)

val helper_program_work : unit -> Driver.Compile.module_work
(** The section-5.1 helper program (cached) — the sweep's coupled
    module: its call graph becomes inline_of dependence edges. *)

val dag_sweep : unit -> row list
(** Edge-free S_8 programs (DAG dispatch must be free), the helper
    program and the user program under [fcfs], [dag] and [dag+lpt],
    with the module's dependence edges and
    pairs-weighted licensed-parallelism fraction.  On the edge-free
    points the [dag] rows reproduce the FCFS elapsed times bit for
    bit. *)

(** {1 Section 6: scaling limit} *)

val run_scaling_study : ?max_stations:int -> unit -> point list
(** Speedup for 1..32 equal f_large functions.  Without [max_stations], one
    processor per function (efficiency decays past 8-16); with it, the
    paper's environment ("the number of processors that can be used in
    parallel is limited to 10-15", §3.3), where speedup plateaus. *)

(** {1 Abstract-interpretation refinement} *)

val absint_pool : int
(** Function-master stations of every {!absint_sweep} run: 4. *)

val absint_sweep : unit -> row list
(** The partitioned lattice, the histogram and the dead-channel program
    (each with refutable couplings) plus the 4-driver helper program as
    a no-op witness, each compiled with the {!Analysis.Absint}
    refinement off and on and both DAGs played under dag+lpt on an
    {!absint_pool}-station cluster.  [race_violations] counts
    {!Traceview.violations} of [Sched.All] gating on the pruned run; soundness of
    the refutations means it is always 0. *)

(** {1 Speculative dispatch (dag+spec)} *)

val spec_program_work :
  ?max_tracked:int ->
  absint:bool ->
  name:string ->
  (unit -> W2.Ast.modul) ->
  Driver.Compile.module_work
(** Compile one sweep program (cached on every knob that shapes the
    analysis, [max_tracked] and [absint] included). *)

val spec_sweep : unit -> row list
(** Two "blinded" programs — dynamically independent but compiled with
    the refinement off and the tracking cap below their write fan-out,
    so every pair is pinned by [summary_limit] — plus the deliberately
    racy scatter program, each played under dag+lpt and dag+spec on a
    pool matching its width.  On the blinded points every speculation
    commits and dag+spec beats dag+lpt; on the racy point attempts roll
    back and the run still terminates with every task written back
    exactly once. *)

(** {1 Critical-path profile sweep} *)

val profile_sweep : unit -> row list
(** The overhead-dominated tiny S_8, the dependence-coupled helper
    program and the speculation-exercising blinded program, one master
    per function on 2/4/8-station pools under FCFS, dag+lpt and
    dag+spec, profiled with {!Critpath.of_trace}
    ({!Critpath.assert_exact} armed).  [buckets] fold to [elapsed]
    exactly; [dominant] names the largest, which shifts from
    compute/overhead toward pool-wait as the pool shrinks. *)

(** {1 Content-addressed compile cache} *)

val edit_closure : Analysis.Depan.t -> string -> int
(** Size of the named function's invalidation closure (itself plus
    transitive dependents over the dependence edges). *)

val widest_edit : Driver.Compile.module_work -> string
(** The function whose edit invalidates the largest closure — the
    sweep's deterministic "programmer edit" target. *)

val cache_program_work :
  name:string ->
  ?edit:string ->
  (unit -> W2.Ast.modul) ->
  Driver.Compile.module_work
(** Compile one sweep program (cached), optionally after
    {!W2.Gen.touch_in} on [edit]. *)

val cache_sweep : unit -> row list
(** Cold, warm and one-edit runs of an edge-free S_8, the helper
    program and the user program against a single {!Cache.t}, dag+lpt
    on a 4-station pool.  Warm elapsed is strictly below cold on every
    point, and the edit run recompiles exactly the {!widest_edit}
    target's closure. *)

(** {1 Modular cross-module analysis (link-time composition)} *)

val link_compose_sweep : unit -> row list
(** Every {!W2.Gen.shape} at 100, 200 and 400 modules, each module
    summarized separately and round-tripped through its [.wsi]
    artifact, then composed from the summaries alone (seed 1). *)

val link_program_work :
  shape:W2.Gen.shape ->
  modules:int ->
  unit ->
  Driver.Compile.module_work * Analysis.Modan.link
(** The inlined whole-program compile of a generated project (cached)
    plus its summary-composed link. *)

val link_plan :
  Driver.Compile.module_work -> Analysis.Modan.link -> Plan.t
(** One master per function with [Plan.edges] replaced by the composed
    {!Analysis.Modan.link.lk_edges}, classed by
    {!Analysis.Modan.xedge_confidence}; a composed speculative edge is
    {!Plan.Hot} exactly when the merged analysis classes the same
    oriented pair [Hot]. *)

val link_sched_sweep : unit -> row list
(** Every shape at 24 and 48 modules played under FCFS, dag+lpt and
    dag+spec on an 8-station pool, with the race oracle armed on the
    DAG-gated policies (0 violations: the composed DAG is a superset
    of the whole-program one).  Each row also carries the run's
    retries, speculative rollbacks and wasted CPU. *)
