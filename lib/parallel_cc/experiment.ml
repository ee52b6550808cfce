(* Drivers for every experiment in the paper's evaluation (section 4).

   Each driver compiles the test programs with the real compiler (work
   measurement), then plays the sequential and parallel compilations on
   the simulated 1989 host, repeating each measurement with the noise
   model and averaging — the paper's protocol (section 4.2). *)

type point = {
  n_functions : int;
  comparison : Timings.comparison;
}

(* --- compilation cache: measuring work is deterministic, do it once --- *)

let memo tbl key compute =
  match Hashtbl.find_opt tbl key with
  | Some v -> v
  | None ->
    let v = compute () in
    Hashtbl.replace tbl key v;
    v

let cache : (string, Driver.Compile.module_work) Hashtbl.t = Hashtbl.create 32

let s_program_work ~size ~count () : Driver.Compile.module_work =
  memo cache
    (Printf.sprintf "s:%s:%d" (W2.Gen.size_name size) count)
    (fun () -> Driver.Compile.compile_module (W2.Gen.s_program ~size ~count ()))

let user_program_work () : Driver.Compile.module_work =
  memo cache "user" (fun () ->
      Driver.Compile.compile_module (W2.Gen.user_program ()))

(* --- one measurement (sequential vs parallel), repeated and averaged --- *)

let repetitions = 3

let measure ?(cfg = Config.default) ?processors (mw : Driver.Compile.module_work) :
    Timings.comparison =
  (* [processors] is the number of workstations available to function
     masters; with fewer processors than tasks, tasks queue FCFS. *)
  let plan, n_fm = Plan.for_processors ?processors mw in
  let runs =
    List.init repetitions (fun i ->
        let seed = 1 + (1000 * i) + (17 * n_fm) in
        let cfg_run = { cfg with Config.noise_seed = seed } in
        let seq =
          Seqrun.run { cfg_run with Config.stations = 1 } mw
        in
        let par =
          (Parrun.run
             { cfg_run with Config.stations = n_fm + 1 }
             mw plan)
            .Parrun.run
        in
        (seq, par))
  in
  let avg_run (projection : (Timings.run * Timings.run) -> Timings.run) =
    let mean field = Stats.mean (List.map (fun r -> field (projection r)) runs) in
    {
      (projection (List.hd runs)) with
      Timings.elapsed = mean (fun r -> r.Timings.elapsed);
      master_cpu = mean (fun r -> r.Timings.master_cpu);
      section_cpu = mean (fun r -> r.Timings.section_cpu);
      extra_parse_cpu = mean (fun r -> r.Timings.extra_parse_cpu);
    }
  in
  let seq = avg_run fst and par = avg_run snd in
  Timings.compare_runs ~processors:n_fm ~seq ~par

(* --- the paper's experiments --- *)

let function_counts = [ 1; 2; 4; 8 ]

(* Figures 3, 4, 5, 12, 13: total execution times (elapsed and
   per-processor CPU, sequential vs parallel) for one function size. *)
let size_series (size : W2.Gen.size) : point list =
  List.map
    (fun count ->
      let mw = s_program_work ~size ~count () in
      { n_functions = count; comparison = measure mw })
    function_counts

(* Figures 8-10 and 14-16 reuse the size series: overheads are already
   part of each comparison. *)

(* Figure 11: the mechanical-engineering user program (three sections
   of three functions), compiled on 2, 3, 5 and 9 processors with the
   load-balancing heuristic. *)
let user_program () : point list =
  let mw = user_program_work () in
  List.map
    (fun p ->
      let total_functions = List.length (Driver.Compile.all_funcs mw) in
      let comparison =
        if p >= total_functions then measure mw else measure ~processors:p mw
      in
      { n_functions = p; comparison })
    [ 2; 3; 5; 9 ]

(* Section 4.2.2 (comparison with Katseff's parallel assembler):
   saturation — elapsed time of the 8-function program as the
   workstation pool grows; past 8 stations nothing improves.  The
   functions are f_medium. *)
let saturation () : (int * float) list =
  let mw = s_program_work ~size:W2.Gen.Medium ~count:8 () in
  let plan = Plan.one_per_station mw in
  List.map
    (fun stations ->
      let cfg_run =
        { Config.default with Config.stations = stations + 1; noise_seed = 7 }
      in
      let par = (Parrun.run cfg_run mw plan).Parrun.run in
      (stations, par.Timings.elapsed))
    [ 1; 2; 3; 4; 5; 6; 8; 10; 12 ]

(* --- ablations (DESIGN.md section 5) --- *)

type ablation = {
  ab_name : string;
  ab_cfg : Config.t;
}

let ablations =
  [
    { ab_name = "baseline"; ab_cfg = Config.default };
    { ab_name = "no-memory-model"; ab_cfg = { Config.default with Config.memory_model = false } };
    { ab_name = "no-core-download"; ab_cfg = { Config.default with Config.core_download = false } };
    { ab_name = "ideal-network"; ab_cfg = { Config.default with Config.ideal_network = true } };
  ]

(* --- section 5.1: procedure inlining as grain coarsening --- *)

type inlining_study = {
  baseline : Timings.comparison;
  inlined : Timings.comparison;
  baseline_functions : int;
  inlined_functions : int;
  calls_inlined : int;
}

(* Compile the many-small-functions program as-is, then again after
   inlining the helpers into their drivers (pruning helpers that are no
   longer called).  The paper's claim: "the increase in size of each
   function operated upon will also improve the speedup obtained by the
   parallel compiler". *)
let run_inlining_study () : inlining_study =
  let m = W2.Gen.helper_program () in
  let baseline_mw = Driver.Compile.compile_module m in
  let expanded, stats = W2.Inline.expand_module m in
  let roots =
    List.concat_map
      (fun (sec : W2.Ast.section) ->
        List.filter_map
          (fun (f : W2.Ast.func) ->
            if String.length f.W2.Ast.fname >= 6
               && String.sub f.W2.Ast.fname 0 6 = "driver"
            then Some f.W2.Ast.fname
            else None)
          sec.W2.Ast.funcs)
      expanded.W2.Ast.sections
  in
  let pruned =
    {
      expanded with
      W2.Ast.sections =
        List.map (W2.Inline.prune_section ~roots) expanded.W2.Ast.sections;
    }
  in
  let inlined_mw = Driver.Compile.compile_module pruned in
  {
    baseline = measure baseline_mw;
    inlined = measure inlined_mw;
    baseline_functions = List.length (Driver.Compile.all_funcs baseline_mw);
    inlined_functions = List.length (Driver.Compile.all_funcs inlined_mw);
    calls_inlined = stats.W2.Inline.inlined;
  }

(* --- section 3.4: parallel make coexistence --- *)

(* A small "system": several independent modules of mixed sizes, like a
   makefile with independent targets. *)
let make_modules () : Driver.Compile.module_work list =
  List.map
    (fun (size, count, tag) ->
      memo cache
        (Printf.sprintf "make:%s:%d" (W2.Gen.size_name size) count)
        (fun () ->
          Driver.Compile.compile_module
            (W2.Gen.s_program ~name:tag ~size ~count ())))
    [
      (W2.Gen.Medium, 3, "libA");
      (W2.Gen.Small, 4, "libB");
      (W2.Gen.Medium, 2, "libC");
      (W2.Gen.Large, 1, "app");
    ]

(* Compare the four build strategies of [Makerun] on the mixed system
   and a ten-station pool. *)
let run_make_study () : Makerun.result list =
  Makerun.run_all
    { Config.default with Config.noise_seed = 5 }
    ~stations:10 (make_modules ())

(* --- section 5: finer-grain parallelism (phase pipelining) --- *)

type grain_point = {
  gp_stations : int;
  coarse : float; (* elapsed, phases 2+3 fused (the paper's design) *)
  fine : float; (* elapsed, phases 2 and 3 as separate tasks *)
}

(* Throughput of the two granularities as the pool shrinks below the
   task count: fine grain pipelines phase-2 and phase-3 stages of
   different functions through the pool, at the price of extra Lisp
   startups and IR shipping.  The program is S_8 of f_medium. *)
let run_grain_study () : grain_point list =
  let mw = s_program_work ~size:W2.Gen.Medium ~count:8 () in
  let plan = Plan.one_per_station mw in
  List.map
    (fun stations ->
      let elapsed fine_grained =
        let cfg_run =
          { Config.default with Config.stations; fine_grained; noise_seed = 9 }
        in
        (Parrun.run cfg_run mw plan).Parrun.run.Timings.elapsed
      in
      { gp_stations = stations; coarse = elapsed false; fine = elapsed true })
    [ 3; 5; 9 ]

(* --- section 6: how far does this scale? --- *)

(* "For the style of parallelism exploited by this compiler, on the
   order of 8 to 16 processors can be used comfortably.  For our domain
   of application programs, extending the number of processors beyond
   this range is unlikely to yield any additional speedup."  The
   functions are f_large. *)
let run_scaling_study ?max_stations () : point list =
  List.map
    (fun count ->
      let mw = s_program_work ~size:W2.Gen.Large ~count () in
      let comparison =
        match max_stations with
        | Some cap when count > cap -> measure ~processors:cap mw
        | Some _ | None -> measure mw
      in
      { n_functions = count; comparison })
    [ 1; 2; 4; 8; 12; 16; 24; 32 ]

(* --- sweep rows --- *)

type row = (string * Stats.Json.t) list

open Stats.Json

(* Simulated seconds and ratios, at the precision every BENCH file
   writes them. *)
let secs x = Fixed (3, x)
let ratio x = Fixed (4, x)
let policy p = Str (Sched.policy_name p)

let speedup_row size (p : point) : row =
  let c = p.comparison in
  [
    ("size", Str (W2.Gen.size_name size));
    ("functions", Int p.n_functions);
    ("elapsed_seq", secs c.Timings.seq.Timings.elapsed);
    ("elapsed_par", secs c.Timings.par.Timings.elapsed);
    ("speedup", ratio c.Timings.speedup);
    ("retries", Int c.Timings.par.Timings.retries);
    ("fallback_tasks", Int c.Timings.par.Timings.fallback_tasks);
  ]

(* Every sweep's simulated run: [mw] under [plan] on [pool] function-
   master stations plus the master's, noise seed 3, on a fresh trace
   (which arms [Parrun.run]'s own accounting and race checks). *)
let play ?(cfg = Config.default) ~pool policy mw plan =
  let trace = Trace.create () in
  let o =
    Parrun.run
      { cfg with Config.stations = pool + 1; noise_seed = 3; sched_policy = policy; trace }
      mw plan
  in
  (o, trace)

let elapsed ((o : Parrun.outcome), _) = o.Parrun.run.Timings.elapsed

(* Dependence-order violations of a played run against the plan its
   master dispatched.  Ungated policies promise no order. *)
let races ((o : Parrun.outcome), tr) policy =
  List.length
    (Traceview.violations (Sched.gating policy) tr ~plan:o.Parrun.scheduled)

(* Each policy played on one point, paired with its elapsed-time
   speedup over FCFS on the same point. *)
let versus_fcfs ~pool policies mw plan =
  let fcfs = play ~pool Sched.Fcfs mw plan in
  List.map
    (fun p ->
      let run = if p = Sched.Fcfs then fcfs else play ~pool p mw plan in
      (p, run, elapsed fcfs /. elapsed run))
    policies

(* The plan's edges of the classes [keep] accepts, over all sections. *)
let count_edges keep (plan : Plan.t) =
  List.fold_left
    (fun n (s, _) -> n + List.length (Plan.section_edges ~keep plan s))
    0 plan.Plan.edges

(* --- fault tolerance: elapsed-time inflation under faults --- *)

(* In the spirit of the paper's S_n series: the same module (S_8 of
   f_medium) compiled under FCFS on pools of 2/4/8/16 stations while the
   crash rate grows.  The plan for one pool size is drawn once per rate
   from the same seed, so a higher rate strictly adds faults; the fault
   horizon is 1.5x the fault-free elapsed time, placing every event
   inside (or near) the useful part of the run. *)
let fault_sweep () : row list =
  let mw = s_program_work ~size:W2.Gen.Medium ~count:8 () in
  let plan = Plan.one_per_station mw in
  List.concat_map
    (fun pool ->
      let free = elapsed (play ~pool Sched.Fcfs mw plan) in
      List.map
        (fun rate ->
          let faults =
            if rate <= 0.0 then Netsim.Fault.none
            else
              Netsim.Fault.random ~seed:(41 + pool) ~stations:(pool + 1) ~rate
                ~horizon:(free *. 1.5) ()
          in
          let o, _ =
            play ~cfg:{ Config.default with Config.faults } ~pool Sched.Fcfs mw plan
          in
          let r = o.Parrun.run in
          [
            ("stations", Int pool);
            ("rate", Fixed (2, rate));
            ("elapsed", secs r.Timings.elapsed);
            ("inflation", ratio (r.Timings.elapsed /. free));
            ("retries", Int r.Timings.retries);
            ("fallback_tasks", Int r.Timings.fallback_tasks);
            ("stations_lost", Int r.Timings.stations_lost);
            ("wasted_cpu", secs r.Timings.wasted_cpu);
          ])
        [ 0.0; 0.25; 0.5; 1.0 ])
    [ 2; 4; 8; 16 ]

(* --- scheduling policies: FCFS vs LPT vs LPT + tiny batching --- *)

(* The points where scheduling can matter: pools smaller than the task
   count, so dispatch units queue.  With a pool per task (the paper's
   main configuration) every policy degenerates to FCFS, and batching
   tiny functions LOSES elapsed time — it serializes work onto one
   station while the others idle; the sweep therefore stresses the
   oversubscribed regime.  [user4] is the section-4.3 program, whose
   sections hold one task each — a witness that per-section reordering
   is a no-op there. *)
let sched_sweep () : row list =
  List.concat_map
    (fun (name, mw, pool) ->
      List.map
        (fun (p, (o, _), speedup) ->
          let r = o.Parrun.run in
          [
            ("series", Str name);
            ("policy", policy p);
            ("pool", Int pool);
            ("dispatch_units", Int r.Timings.dispatch_units);
            ("elapsed", secs r.Timings.elapsed);
            ("speedup_vs_fcfs", ratio speedup);
          ])
        (versus_fcfs ~pool
           [ Sched.Fcfs; Sched.Lpt; Sched.Lpt_batch ]
           mw (Plan.one_per_station mw)))
    [
      ("tiny4p2", s_program_work ~size:W2.Gen.Tiny ~count:4 (), 2);
      ("tiny8p2", s_program_work ~size:W2.Gen.Tiny ~count:8 (), 2);
      ("tiny8p4", s_program_work ~size:W2.Gen.Tiny ~count:8 (), 4);
      ("tiny16p4", s_program_work ~size:W2.Gen.Tiny ~count:16 (), 4);
      ("small8p4", s_program_work ~size:W2.Gen.Small ~count:8 (), 4);
      ("large8p4", s_program_work ~size:W2.Gen.Large ~count:8 (), 4);
      ("huge8p4", s_program_work ~size:W2.Gen.Huge ~count:8 (), 4);
      ("user4", user_program_work (), 4);
    ]

(* --- dependence-aware dispatch: FCFS vs DAG vs DAG + LPT --- *)

let module_edges (t : Analysis.Depan.t) =
  List.fold_left
    (fun n si -> n + List.length si.Analysis.Depan.si_edges)
    0 t.Analysis.Depan.dp_sections

(* Pairs-weighted mean of the per-section licensed fractions: the
   fraction of same-section function pairs the analyzer lets the
   scheduler overlap.  An edge-free module scores 1.0. *)
let module_licensed (t : Analysis.Depan.t) =
  let pairs, licensed =
    List.fold_left
      (fun (p, l) si ->
        let n = Array.length si.Analysis.Depan.si_funcs in
        let np = float_of_int (n * (n - 1) / 2) in
        (p +. np, l +. (np *. Analysis.Depan.licensed_fraction si)))
      (0.0, 0.0) t.Analysis.Depan.dp_sections
  in
  if pairs = 0.0 then 1.0 else licensed /. pairs

let helper_program_work () : Driver.Compile.module_work =
  memo cache "helpers" (fun () ->
      Driver.Compile.compile_module (W2.Gen.helper_program ()))

(* Three regimes for the dependence-aware policies: an edge-free S_n
   (the DAG is a no-op and must cost nothing), the helper program
   (whose call graph the analyzer turns into inline_of edges, the
   paper's section 5.1 coupling), and the section-4.3 user program. *)
let dag_sweep () : row list =
  List.concat_map
    (fun (name, (mw : Driver.Compile.module_work), pool) ->
      let analysis = mw.Driver.Compile.mw_analysis in
      List.map
        (fun (p, (o, _), speedup) ->
          let r = o.Parrun.run in
          [
            ("series", Str name);
            ("policy", policy p);
            ("pool", Int pool);
            ("dispatch_units", Int r.Timings.dispatch_units);
            ("edges", Int (module_edges analysis));
            ("licensed_fraction", ratio (module_licensed analysis));
            ("elapsed", secs r.Timings.elapsed);
            ("speedup_vs_fcfs", ratio speedup);
          ])
        (versus_fcfs ~pool
           [ Sched.Fcfs; Sched.Dag; Sched.Dag_lpt ]
           mw (Plan.one_per_station mw)))
    [
      ("tiny8p4", s_program_work ~size:W2.Gen.Tiny ~count:8 (), 4);
      ("small8p4", s_program_work ~size:W2.Gen.Small ~count:8 (), 4);
      ("helpers4", helper_program_work (), 4);
      ("user4", user_program_work (), 4);
    ]

(* --- abstract-interpretation refinement: pruned edges, end to end --- *)

let absint_program_work ~absint ~name (make : unit -> W2.Ast.modul) :
    Driver.Compile.module_work =
  memo cache (Printf.sprintf "absint:%s:%b" name absint) (fun () ->
      Driver.Compile.compile_source ~absint
        (W2.Pretty.module_to_string (make ())))

let module_pruned (t : Analysis.Depan.t) =
  List.fold_left
    (fun n si -> n + List.length si.Analysis.Depan.si_pruned)
    0 t.Analysis.Depan.dp_sections

let absint_pool = 4

(* Each program is compiled twice — refinement off and on — and both
   DAGs are played under dag+lpt on an [absint_pool]-station pool with
   the race oracle armed: the pruned schedule must be faster (or at
   worst equal) and every surviving edge must still be honoured
   dynamically.  The helper program is a witness: every edge there is
   inline_of/sig_agreement, which the refinement never touches, so the
   point must be a no-op. *)
let absint_sweep () : row list =
  List.map
    (fun (name, make) ->
      let off = absint_program_work ~absint:false ~name make in
      let on = absint_program_work ~absint:true ~name make in
      let play_dag (mw : Driver.Compile.module_work) =
        play ~pool:absint_pool Sched.Dag_lpt mw (Plan.one_per_station mw)
      in
      let run_off = play_dag off and run_on = play_dag on in
      let a_off = off.Driver.Compile.mw_analysis
      and a_on = on.Driver.Compile.mw_analysis in
      [
        ("series", Str name);
        ("functions", Int (List.length (Driver.Compile.all_funcs on)));
        ("edges_off", Int (module_edges a_off));
        ("edges_on", Int (module_edges a_on));
        ("pruned", Int (module_pruned a_on));
        ("licensed_off", ratio (module_licensed a_off));
        ("licensed_on", ratio (module_licensed a_on));
        ("elapsed_off", secs (elapsed run_off));
        ("elapsed_on", secs (elapsed run_on));
        ("speedup", ratio (elapsed run_off /. elapsed run_on));
        ("race_violations", Int (races run_on Sched.Dag_lpt));
      ])
    [
      ("partitioned", fun () -> W2.Gen.partitioned_program ());
      ("histogram", fun () -> W2.Gen.histogram_program ());
      ("deadchan", fun () -> W2.Gen.deadchan_program ());
      ("helpers4", fun () -> W2.Gen.helper_program ~drivers:4 ());
    ]

(* --- speculative dispatch (dag+spec) --- *)

let spec_program_work ?max_tracked ~absint ~name (make : unit -> W2.Ast.modul)
    : Driver.Compile.module_work =
  memo cache
    (Printf.sprintf "spec:%s:%b:%d" name absint
       (Option.value ~default:(-1) max_tracked))
    (fun () ->
      Driver.Compile.compile_source ?max_tracked ~absint
        (W2.Pretty.module_to_string (make ())))

(* The "blinded" programs are dynamically independent but compiled with
   the abstract interpretation off and the summary tracking cap below
   the write fan-out, so the analyzer pins every pair with
   summary_limit — the conservative-analysis regime speculation is for.
   The racy program is the adversarial control: its conflicts are real,
   so dag+spec must roll attempts back and still finish correctly.
   Each program is played under dag+lpt and dag+spec on a pool matching
   its width; [Parrun.run] already asserts both runs race-free, the
   explicit count lands in the benchmark artifact. *)
let spec_sweep () : row list =
  List.map
    (fun (name, make, max_tracked, absint, pool) ->
      let mw = spec_program_work ?max_tracked ~absint ~name make in
      let plan = Plan.one_per_station mw in
      let lpt = play ~pool Sched.Dag_lpt mw plan in
      let spec = play ~pool Sched.Dag_spec mw plan in
      let r = (fst spec).Parrun.run in
      [
        ("series", Str name);
        ("functions", Int (List.length (Driver.Compile.all_funcs mw)));
        ("spec_edges", Int (count_edges (( <> ) Plan.Proven) plan));
        ("hot_edges", Int (count_edges (( = ) Plan.Hot) plan));
        ("elapsed_lpt", secs (elapsed lpt));
        ("elapsed_spec", secs (elapsed spec));
        ("speedup", ratio (elapsed lpt /. elapsed spec));
        ("spec_dispatched", Int r.Timings.spec_dispatched);
        ("spec_committed", Int r.Timings.spec_committed);
        ("spec_rolled_back", Int r.Timings.spec_rolled_back);
        ("race_violations", Int (races spec Sched.Dag_spec));
      ])
    [
      ( "blinded4",
        (fun () -> W2.Gen.speculative_program ~workers:4 ~fanout:24 ()),
        Some 8,
        false,
        4 );
      ( "blinded8",
        (fun () -> W2.Gen.speculative_program ~workers:8 ~fanout:24 ()),
        Some 8,
        false,
        8 );
      ("racy3", (fun () -> W2.Gen.racy_program ~scatters:3 ()), None, true, 3);
    ]

(* --- critical-path profile sweep --- *)

(* Three bottleneck regimes: the overhead-dominated tiny S_8, the
   dependence-coupled helper program, and the speculation-exercising
   blinded program.  One function master per function on pools smaller
   than the task count, so shrinking the pool turns compute time into
   pool-wait time and the dominant bucket shifts. *)
let profile_sweep () : row list =
  List.concat_map
    (fun (name, mw) ->
      let plan = Plan.one_per_station mw in
      List.concat_map
        (fun pool ->
          List.map
            (fun p ->
              let ((o, tr) as run) = play ~pool p mw plan in
              let prof =
                Critpath.of_trace ~plan:o.Parrun.scheduled ~elapsed:(elapsed run) tr
              in
              Critpath.assert_exact prof;
              let dominant =
                fst
                  (List.fold_left
                     (fun (bn, bv) (n, v) ->
                       if v > bv then (n, v) else (bn, bv))
                     ("", neg_infinity) prof.Critpath.p_buckets)
              in
              [
                ("series", Str name);
                ("policy", policy p);
                ("pool", Int pool);
                ("segments", Int (List.length prof.Critpath.p_segments));
                ("dominant", Str dominant);
                ("elapsed", Exact prof.Critpath.p_elapsed);
                ( "buckets",
                  Obj
                    (List.map (fun (b, v) -> (b, Exact v)) prof.Critpath.p_buckets)
                );
              ])
            [ Sched.Fcfs; Sched.Dag_lpt; Sched.Dag_spec ])
        [ 2; 4; 8 ])
    [
      ("tiny8", s_program_work ~size:W2.Gen.Tiny ~count:8 ());
      ("helpers", helper_program_work ());
      ( "blinded8",
        spec_program_work ~max_tracked:8 ~absint:false ~name:"blinded8"
          (fun () -> W2.Gen.speculative_program ~workers:8 ~fanout:24 ()) );
    ]

(* --- content-addressed compile cache: cold / warm / one-edit --- *)

(* The invalidation closure of editing [name]: the function itself plus
   every transitive dependent in the analyzer's dependence DAG — by the
   key construction ([Analysis.Depan.cache_keys] folds predecessor keys
   in), exactly the set whose keys change, hence exactly the set an
   incremental rebuild recompiles. *)
let edit_closure (t : Analysis.Depan.t) name : int =
  List.fold_left
    (fun acc (si : Analysis.Depan.section_info) ->
      match
        Array.find_index
          (fun fi -> fi.Analysis.Depan.fi_name = name)
          si.Analysis.Depan.si_funcs
      with
      | Some i ->
        let reached = Analysis.Digraph.reach (Analysis.Depan.successors si) i in
        acc + Array.fold_left (fun k r -> if r then k + 1 else k) 0 reached
      | None -> acc)
    0 t.Analysis.Depan.dp_sections

(* The most coupled function of the module: editing it invalidates the
   largest closure, the sweep's most interesting (and still
   deterministic) incremental edit. *)
let widest_edit (mw : Driver.Compile.module_work) : string =
  let best = ref ("", 0) in
  List.iter
    (fun (fw : Driver.Compile.func_work) ->
      let c = edit_closure mw.Driver.Compile.mw_analysis fw.Driver.Compile.fw_name in
      if c > snd !best then best := (fw.Driver.Compile.fw_name, c))
    (Driver.Compile.all_funcs mw);
  fst !best

let cache_program_work ~name ?edit (make : unit -> W2.Ast.modul) :
    Driver.Compile.module_work =
  memo cache
    (Printf.sprintf "cachebench:%s:%s" name (Option.value ~default:"" edit))
    (fun () ->
      let m = make () in
      let m = match edit with None -> m | Some f -> W2.Gen.touch_in m f in
      Driver.Compile.compile_module m)

(* Cold, warm and one-edit runs against a single store, dag+lpt on a
   small pool.  The cold run populates (every lookup misses), the warm
   run must hit on every function, and the edit run must recompile
   exactly the edited function's closure — each such miss flagged as an
   invalidation — while hitting on everything else.  The points: an
   edge-free S_8 (closure of any edit = 1), the inline-coupled helper
   program (editing a shared helper invalidates its drivers), and the
   section-4.3 user program. *)
let cache_sweep () : row list =
  List.map
    (fun (name, make, pool) ->
      let mw = cache_program_work ~name make in
      let edited = widest_edit mw in
      let mw_edit = cache_program_work ~name ~edit:edited make in
      let cfg = { Config.default with Config.cache = Some (Cache.create ()) } in
      let run (mw' : Driver.Compile.module_work) =
        (fst (play ~cfg ~pool Sched.Dag_lpt mw' (Plan.one_per_station mw')))
          .Parrun.run
      in
      let cold = run mw in
      let warm = run mw in
      let edit = run mw_edit in
      [
        ("series", Str name);
        ("pool", Int pool);
        ("functions", Int (List.length (Driver.Compile.all_funcs mw)));
        ("edited", Str edited);
        ("closure", Int (edit_closure mw_edit.Driver.Compile.mw_analysis edited));
        ("cold_elapsed", secs cold.Timings.elapsed);
        ("warm_elapsed", secs warm.Timings.elapsed);
        ("edit_elapsed", secs edit.Timings.elapsed);
        ("warm_speedup", ratio (cold.Timings.elapsed /. warm.Timings.elapsed));
        ("cold_hits", Int cold.Timings.cache_hits);
        ("cold_misses", Int cold.Timings.cache_misses);
        ("warm_hits", Int warm.Timings.cache_hits);
        ("warm_misses", Int warm.Timings.cache_misses);
        ("edit_hits", Int edit.Timings.cache_hits);
        ("edit_misses", Int edit.Timings.cache_misses);
        ("edit_invalidated", Int edit.Timings.cache_invalidated);
      ])
    [
      ("medium8", (fun () -> W2.Gen.s_program ~size:W2.Gen.Medium ~count:8 ()), 4);
      ("helpers", (fun () -> W2.Gen.helper_program ()), 4);
      ("user", (fun () -> W2.Gen.user_program ()), 4);
    ]

(* --- modular cross-module analysis: compose from summaries, then
   schedule the whole link as one project --- *)

(* Summarize each module separately (providers accumulate as [deps]
   for the cross-module content keys), then force every summary
   through the .wsi artifact: composition must see exactly what a
   separate build persists, nothing more. *)
let link_summaries (mods : W2.Ast.modul list) : Analysis.Modan.module_summary list =
  List.rev
    (List.fold_left
       (fun acc m ->
         let s = Analysis.Modan.summarize ~deps:acc m in
         Analysis.Modan.of_artifact (Analysis.Modan.to_artifact s) :: acc)
       [] mods)

let link_cross_edges (link : Analysis.Modan.link) =
  List.length
    (List.filter
       (fun (e : Analysis.Modan.xedge) ->
         e.Analysis.Modan.x_from_module <> e.Analysis.Modan.x_to_module)
       link.Analysis.Modan.lk_edges)

(* Every shape at 100/200/400 modules, composed from summaries alone —
   no source text or AST crosses the module boundary after
   summarization. *)
let link_compose_sweep () : row list =
  List.concat_map
    (fun shape ->
      List.map
        (fun n ->
          let mods = W2.Gen.project_program ~modules:n ~seed:1 ~shape () in
          let link = Analysis.Modan.compose (link_summaries mods) in
          let diags =
            List.sort compare
              (List.fold_left
                 (fun acc (d : W2.Diag.t) ->
                   let c = d.W2.Diag.d_code in
                   match List.assoc_opt c acc with
                   | Some k -> (c, k + 1) :: List.remove_assoc c acc
                   | None -> (c, 1) :: acc)
                 [] link.Analysis.Modan.lk_diags)
          in
          [
            ("shape", Str (W2.Gen.shape_name shape));
            ("modules", Int n);
            ("functions", Int (List.length link.Analysis.Modan.lk_funcs));
            ("edges", Int (List.length link.Analysis.Modan.lk_edges));
            ("cross_edges", Int (link_cross_edges link));
            ("levels", Int (List.length link.Analysis.Modan.lk_levels));
            ("module_levels", Int (List.length link.Analysis.Modan.lk_module_levels));
            ("licensed", ratio link.Analysis.Modan.lk_licensed);
            ("missing", Int (List.length link.Analysis.Modan.lk_missing));
            ("diags", Obj (List.map (fun (c, k) -> (c, Int k)) diags));
          ])
        [ 100; 200; 400 ])
    W2.Gen.all_shapes

let link_cache :
    (string, Driver.Compile.module_work * Analysis.Modan.link) Hashtbl.t =
  Hashtbl.create 8

let link_program_work ~shape ~modules () :
    Driver.Compile.module_work * Analysis.Modan.link =
  memo link_cache
    (Printf.sprintf "link:%s:%d" (W2.Gen.shape_name shape) modules)
    (fun () ->
      let mods = W2.Gen.project_program ~modules ~seed:1 ~shape () in
      let link = Analysis.Modan.compose (link_summaries mods) in
      let merged = Analysis.Modan.inline_project mods in
      ( Driver.Compile.compile_source (W2.Pretty.module_to_string merged),
        link ))

(* The project plan: one master per function over the inlined program,
   with the whole-program DAG replaced by the composed one.  The
   composed edge set is a superset of what the whole-program analyzer
   finds (the modan soundness theorem), so gating on it stays
   conservative; a composed speculative edge is hot exactly when the
   merged analysis has the same oriented pair as hot, its proof of real
   sharing. *)
let link_plan (mw : Driver.Compile.module_work) (link : Analysis.Modan.link) :
    Plan.t =
  let plan = Plan.one_per_station mw in
  {
    plan with
    Plan.edges =
      List.map
        (fun (s, merged) ->
          ( s,
            List.map
              (fun (e : Analysis.Modan.xedge) ->
                let c =
                  match Analysis.Modan.xedge_confidence e with
                  | Analysis.Depan.Proven -> Plan.Proven
                  | Analysis.Depan.Speculative ->
                    if List.mem (e.x_from, e.x_to, Plan.Hot) merged then Plan.Hot
                    else Plan.Cold
                in
                (e.x_from, e.x_to, c))
              link.Analysis.Modan.lk_edges ))
        plan.Plan.edges;
  }

(* Every shape at 24 and 48 modules under FCFS, dag+lpt and dag+spec on
   an 8-station pool. *)
let link_sched_sweep () : row list =
  List.concat_map
    (fun shape ->
      List.concat_map
        (fun modules ->
          let mw, link =
            link_program_work ~shape ~modules ()
          in
          let plan = link_plan mw link in
          let pool = 8 in
          List.map
            (fun (p, ((o, _) as run), speedup) ->
              let r = o.Parrun.run in
              [
                ("shape", Str (W2.Gen.shape_name shape));
                ("modules", Int modules);
                ("functions", Int (List.length (Driver.Compile.all_funcs mw)));
                ("policy", policy p);
                ("pool", Int pool);
                ("units", Int r.Timings.dispatch_units);
                ("elapsed", secs r.Timings.elapsed);
                ("speedup_vs_fcfs", ratio speedup);
                ("cross_edges", Int (link_cross_edges link));
                ("spec_edges", Int (count_edges (( <> ) Plan.Proven) plan));
                ("race_violations", Int (races run p));
                ("retries", Int r.Timings.retries);
                ("spec_rolled_back", Int r.Timings.spec_rolled_back);
                ("wasted_cpu", secs r.Timings.wasted_cpu);
              ])
            (versus_fcfs ~pool [ Sched.Fcfs; Sched.Dag_lpt; Sched.Dag_spec ]
               mw plan))
        [ 24; 48 ])
    W2.Gen.all_shapes
