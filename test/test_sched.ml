(* The cost-model scheduler (Sched) and its integration into Parrun.

   Three layers of guarantees:
   - Sched is a pure plan-to-plan function: whatever the policy,
     threshold or pool, the scheduled plan compiles exactly the same
     functions in the same sections (a per-section permutation under
     LPT, a partition into fewer dispatch units under batching).
   - FCFS is the identity — physically, so the DES event schedule and
     the resulting timings stay bit-identical to the goldens recorded
     before the scheduler existed, with and without fault injection.
   - The new policies only ever help on oversubscribed pools, and the
     fault-tolerance contract (terminate, every function compiled
     exactly once) survives batching under the whole chaos matrix. *)

open Parallel_cc

let cost = Driver.Cost.default
let threshold = Sched.batch_threshold

let tiny n = Experiment.s_program_work ~size:W2.Gen.Tiny ~count:n ()
let small n = Experiment.s_program_work ~size:W2.Gen.Small ~count:n ()
let large n = Experiment.s_program_work ~size:W2.Gen.Large ~count:n ()
let user () = Experiment.user_program_work ()

(* Per-section multiset of function names — the invariant every policy
   must preserve. *)
let section_funcs (plan : Plan.t) =
  List.map
    (fun (s, tasks) ->
      ( s,
        List.concat_map
          (fun (t : Plan.task) ->
            List.map (fun fw -> fw.Driver.Compile.fw_name) t.Plan.t_funcs)
          tasks
        |> List.sort compare ))
    plan.Plan.tasks_per_section

let plans () =
  [
    ("tiny8 one-per", Plan.one_per_station (tiny 8));
    ("small8 one-per", Plan.one_per_station (small 8));
    ("user one-per", Plan.one_per_station (user ()));
    ("user grouped 4", Plan.grouped (user ()) ~processors:4);
    ("mixed grouped 3", Plan.grouped (large 8) ~processors:3);
  ]

(* --- the policy type --- *)

(* The CLI's [--sched] enum maps each name back to its policy, so the
   names must be distinct. *)
let test_policy_names () =
  let names = List.map Sched.policy_name Sched.policies in
  Alcotest.(check int) "names are distinct"
    (List.length names)
    (List.length (List.sort_uniq compare names))

(* --- purity: same functions, same sections, whatever the policy --- *)

let test_fcfs_is_physical_identity () =
  List.iter
    (fun (name, plan) ->
      Alcotest.(check bool)
        (name ^ ": fcfs returns the plan unchanged")
        true
        (Sched.schedule ~policy:Sched.Fcfs ~cost ~threshold ~stations:5 plan
        == plan))
    (plans ())

let test_schedule_preserves_functions () =
  List.iter
    (fun (name, plan) ->
      let reference = section_funcs plan in
      List.iter
        (fun policy ->
          List.iter
            (fun threshold ->
              List.iter
                (fun stations ->
                  let scheduled =
                    Sched.schedule ~policy ~cost ~threshold ~stations plan
                  in
                  Alcotest.(check bool)
                    (Printf.sprintf
                       "%s @ %s t=%.0f s=%d: same functions per section" name
                       (Sched.policy_name policy) threshold stations)
                    true
                    (section_funcs scheduled = reference))
                [ 2; 3; 5; 9 ])
            [ 0.0; 30.0; 60.0; 1000.0; 1e9 ])
        Sched.policies)
    (plans ())

let test_schedule_preserves_functions_random () =
  QCheck.Test.make ~count:100 ~name:"random threshold/pool preserve functions"
    QCheck.(
      triple (float_bound_inclusive 2000.0) (int_range 2 12) (int_range 0 5))
    (fun (threshold, stations, p) ->
      let policy = List.nth Sched.policies p in
      let plan = Plan.one_per_station (tiny 8) in
      let scheduled = Sched.schedule ~policy ~cost ~threshold ~stations plan in
      section_funcs scheduled = section_funcs plan)

(* --- LPT ordering --- *)

let test_lpt_descending () =
  (* The user program mixes function sizes; grouping onto 4 masters
     leaves multi-task sections to reorder. *)
  let plan = Plan.one_per_station (large 8) in
  let scheduled =
    Sched.schedule ~policy:Sched.Lpt ~cost ~threshold ~stations:5 plan
  in
  List.iter
    (fun (s, tasks) ->
      let costs =
        List.map
          (fun (t : Plan.task) ->
            Driver.Cost.task_phase23_seconds cost t.Plan.t_funcs)
          tasks
      in
      Alcotest.(check bool)
        (s ^ ": costs descending")
        true
        (costs = List.sort (fun a b -> compare b a) costs))
    scheduled.Plan.tasks_per_section

(* --- batching shape --- *)

let test_batching_merges_tiny () =
  let plan = Plan.one_per_station (tiny 8) in
  (* 8 tiny tasks of ~9.7 estimated seconds against a 60 s threshold:
     FFD packs 6 + 2 into two dispatch units. *)
  let scheduled =
    Sched.schedule ~policy:Sched.Lpt_batch ~cost ~threshold ~stations:5 plan
  in
  Alcotest.(check int) "8 tiny tasks pack into 2 units" 2
    (Plan.task_count scheduled);
  Alcotest.(check bool) "same functions" true
    (section_funcs scheduled = section_funcs plan);
  (* A threshold below the task cost batches nothing. *)
  let untouched =
    Sched.schedule ~policy:Sched.Lpt_batch ~cost ~threshold:1.0 ~stations:5 plan
  in
  Alcotest.(check int) "sub-cost threshold batches nothing" 8
    (Plan.task_count untouched);
  (* The bin budget is the pool size: an infinite threshold on a
     2-station pool still yields one unit per station at most. *)
  let capped =
    Sched.schedule ~policy:Sched.Lpt_batch ~cost ~threshold:1e9 ~stations:3 plan
  in
  Alcotest.(check bool)
    (Printf.sprintf "units %d <= pool 2" (Plan.task_count capped))
    true
    (Plan.task_count capped <= 2)

let test_batching_keeps_sections () =
  let plan = Plan.one_per_station (user ()) in
  let scheduled =
    Sched.schedule ~policy:Sched.Lpt_batch ~cost ~threshold:1e9 ~stations:3 plan
  in
  List.iter
    (fun (s, tasks) ->
      List.iter
        (fun (t : Plan.task) ->
          Alcotest.(check string) "task stays in its section" s t.Plan.t_section)
        tasks)
    scheduled.Plan.tasks_per_section

(* --- FCFS timings are bit-identical to the pre-scheduler goldens --- *)

(* Recorded on main before Sched existed: S_4 f_tiny, one function
   master per station (pool of 4 + master), noise seed 0. *)
let golden_ff_elapsed = 84.144033268500777
let golden_faulty_elapsed = 1690.5240572559981
let golden_faulty_retries = 8
let golden_faulty_wasted = 299.05740315000065

let fcfs_cfg = { Config.default with Config.stations = 5; noise_seed = 0 }

let test_fcfs_golden_fault_free () =
  let mw = tiny 4 in
  let r = (Parrun.run fcfs_cfg mw (Plan.one_per_station mw)).Parrun.run in
  Alcotest.(check (float 0.0)) "elapsed bit-identical" golden_ff_elapsed
    r.Timings.elapsed;
  Alcotest.(check (float 0.0)) "no wasted cpu" 0.0 r.Timings.wasted_cpu;
  Alcotest.(check int) "one dispatch unit per task" 4 r.Timings.dispatch_units

let test_fcfs_golden_faulted () =
  let mw = tiny 4 in
  let plan = Plan.one_per_station mw in
  let faults =
    Netsim.Fault.random ~seed:99 ~stations:5 ~rate:1.0
      ~horizon:golden_ff_elapsed ()
  in
  let r = (Parrun.run { fcfs_cfg with Config.faults } mw plan).Parrun.run in
  Alcotest.(check (float 0.0)) "faulted elapsed bit-identical"
    golden_faulty_elapsed r.Timings.elapsed;
  Alcotest.(check int) "retries" golden_faulty_retries r.Timings.retries;
  Alcotest.(check (float 0.0)) "wasted cpu" golden_faulty_wasted
    r.Timings.wasted_cpu

(* --- golden timings of the runs no BENCH file pins bit for bit ---

   Recorded with [%.17g] before the runners shared their Lisp-process
   steps; every noise draw, transfer and compute must stay where it
   was.  Seqrun at noise seed 7 on S_6 f_small, without a cache, cold
   against an empty store and warm against the populated one; Parrun
   fine-grained on S_6 f_medium with a pool of 3, fault-free and then
   under a rate-1.0 fault plan with LPT re-dispatch (every task retries
   twice and falls back); and the four strategies of the section-3.4
   make study. *)

let golden_seq_plain = (724.12230394628114, [ 713.60736144628049 ])
let golden_seq_cold = (724.16783354628114, [ 713.60736144628049 ])
let golden_seq_warm = (45.879102387638056, [ 35.193630287637902 ])

let golden_fine =
  ( 1189.2066184939717,
    [ 136.60570665580539; 802.10771780726623; 978.37830951812361;
      863.5594507764464 ] )

let golden_fine_faulted_elapsed = 9135.4556520015904
let golden_fine_faulted_wasted = 7457.2117101802187

let golden_make =
  [
    ("sequential", 6244.3400345342698);
    ("parallel make", 2765.7391107762355);
    ("parallel compiler", 3920.0418423427291);
    ("make + parallel compiler", 2368.8789805591059);
  ]

let check_run what (elapsed, cpu) (r : Timings.run) =
  Alcotest.(check (float 0.0)) (what ^ " elapsed") elapsed r.Timings.elapsed;
  Alcotest.(check (list (float 0.0)))
    (what ^ " cpu per station") cpu r.Timings.cpu_per_station

let test_seqrun_golden () =
  let mw = small 6 in
  let cfg = { Config.default with Config.stations = 1; noise_seed = 7 } in
  check_run "no cache" golden_seq_plain (Seqrun.run cfg mw);
  let cfg = { cfg with Config.cache = Some (Cache.create ()) } in
  let cold = Seqrun.run cfg mw in
  check_run "cold" golden_seq_cold cold;
  Alcotest.(check int) "cold misses" 6 cold.Timings.cache_misses;
  let warm = Seqrun.run cfg mw in
  check_run "warm" golden_seq_warm warm;
  Alcotest.(check int) "warm hits" 6 warm.Timings.cache_hits

let test_fine_grained_golden () =
  let mw = Experiment.s_program_work ~size:W2.Gen.Medium ~count:6 () in
  let plan = Plan.one_per_station mw in
  let cfg =
    { Config.default with Config.stations = 4; noise_seed = 7; fine_grained = true }
  in
  let fine = (Parrun.run cfg mw plan).Parrun.run in
  check_run "fine-grained" golden_fine fine;
  let faults =
    Netsim.Fault.random ~seed:4 ~stations:4 ~rate:1.0
      ~horizon:fine.Timings.elapsed ()
  in
  let cfg = { cfg with Config.faults; sched_policy = Sched.Lpt } in
  let r = (Parrun.run cfg mw plan).Parrun.run in
  Alcotest.(check (float 0.0)) "faulted elapsed" golden_fine_faulted_elapsed
    r.Timings.elapsed;
  Alcotest.(check (float 0.0)) "faulted wasted cpu" golden_fine_faulted_wasted
    r.Timings.wasted_cpu;
  Alcotest.(check int) "faulted retries" 12 r.Timings.retries;
  Alcotest.(check int) "faulted fallbacks" 6 r.Timings.fallback_tasks

let test_make_study_golden () =
  Alcotest.(check (list (pair string (float 0.0))))
    "strategy elapsed" golden_make
    (List.map
       (fun (r : Makerun.result) ->
         (Makerun.strategy_name r.Makerun.strategy, r.Makerun.elapsed))
       (Experiment.run_make_study ()))

(* --- the policies only help on oversubscribed pools --- *)

let elapsed ~policy ~pool mw =
  let plan = Plan.one_per_station mw in
  let cfg =
    {
      Config.default with
      Config.stations = pool + 1;
      noise_seed = 3;
      sched_policy = policy;
    }
  in
  (Parrun.run cfg mw plan).Parrun.run.Timings.elapsed

let test_batching_beats_fcfs_on_tiny () =
  List.iter
    (fun (n, pool) ->
      let fcfs = elapsed ~policy:Sched.Fcfs ~pool (tiny n) in
      let batched = elapsed ~policy:Sched.Lpt_batch ~pool (tiny n) in
      Alcotest.(check bool)
        (Printf.sprintf "tiny%d pool %d: lpt+batch %.1f < fcfs %.1f" n pool
           batched fcfs)
        true (batched < fcfs))
    [ (4, 2); (8, 2); (8, 4); (16, 4) ]

let test_policies_no_worse_on_large () =
  let fcfs = elapsed ~policy:Sched.Fcfs ~pool:4 (large 8) in
  let lpt = elapsed ~policy:Sched.Lpt ~pool:4 (large 8) in
  let batched = elapsed ~policy:Sched.Lpt_batch ~pool:4 (large 8) in
  Alcotest.(check bool)
    (Printf.sprintf "large8 pool 4: lpt %.1f <= fcfs %.1f" lpt fcfs)
    true (lpt <= fcfs);
  (* Large functions sit far above the threshold: batching is inert and
     lpt+batch degenerates to plain LPT, bit for bit. *)
  Alcotest.(check (float 0.0)) "lpt+batch == lpt above threshold" lpt batched

(* --- fault tolerance survives batching (chaos under lpt+batch) --- *)

let batch_cfg ~fine =
  {
    Config.default with
    Config.stations = 5;
    noise_seed = 0;
    fine_grained = fine;
    sched_policy = Sched.Lpt_batch;
  }

let run_batched ~fine ?(budget = Config.default.Config.retry_budget) mw faults =
  let plan = Plan.one_per_station mw in
  Parrun.run
    { (batch_cfg ~fine) with Config.faults; retry_budget = budget }
    mw plan

(* Under batching the dispatch units are the scheduled plan's tasks, so
   coverage is checked against the heads of that plan (computed with
   the same policy/threshold/pool), not against individual functions. *)
let scheduled_heads ~fine mw =
  let cfg = batch_cfg ~fine in
  let scheduled =
    Sched.schedule ~policy:cfg.Config.sched_policy ~cost
      ~threshold:Sched.batch_threshold ~stations:cfg.Config.stations
      (Plan.one_per_station mw)
  in
  List.concat_map
    (fun (_, tasks) ->
      List.map
        (fun (t : Plan.task) ->
          (List.hd t.Plan.t_funcs).Driver.Compile.fw_name)
        tasks)
    scheduled.Plan.tasks_per_section
  |> List.sort compare

let completed_heads (o : Parrun.outcome) =
  List.filter_map
    (fun (name, _) ->
      let n = String.length name in
      if n >= 3 && String.sub name (n - 3) 3 = "#p3" then None else Some name)
    o.Parrun.station_of_task
  |> List.sort compare

let test_chaos_matrix_batched () =
  let mw = tiny 8 in
  List.iter
    (fun fine ->
      let ff =
        (run_batched ~fine mw Netsim.Fault.none).Parrun.run.Timings.elapsed
      in
      let expected = scheduled_heads ~fine mw in
      let plans =
        [
          ("crash", Netsim.Fault.Crash { station = 2; at = 0.3 *. ff });
          ("reclaim", Netsim.Fault.Reclaim { station = 2; at = 0.25 *. ff });
          ( "slowdown",
            Netsim.Fault.Slowdown
              { station = 3; from_ = 0.1 *. ff; until = 0.6 *. ff; factor = 3.0 }
          );
          ( "fs-brownout",
            Netsim.Fault.Fs_brownout
              { from_ = 0.05 *. ff; until = 0.5 *. ff; factor = 4.0 } );
          ( "ether-degrade",
            Netsim.Fault.Ether_degrade
              { from_ = 0.05 *. ff; until = 0.5 *. ff; factor = 3.0 } );
        ]
      in
      List.iter
        (fun (kind, event) ->
          List.iter
            (fun budget ->
              let label =
                Printf.sprintf "batched %s %s budget=%d"
                  (if fine then "fine" else "coarse")
                  kind budget
              in
              let o =
                run_batched ~fine ~budget mw { Netsim.Fault.events = [ event ] }
              in
              Alcotest.(check bool)
                (label ^ ": terminates")
                true
                (o.Parrun.run.Timings.elapsed > 0.0);
              Alcotest.(check (list string))
                (label ^ ": every dispatch unit completed exactly once")
                expected (completed_heads o))
            [ 0; 2 ])
        plans)
    [ false; true ]

let test_random_chaos_batched () =
  let mw = tiny 8 in
  let seed =
    match Sys.getenv_opt "CHAOS_SEED" with
    | Some s -> (
      match int_of_string_opt s with Some n when n <> 0 -> n | _ -> 7)
    | None -> 7
  in
  let ff = (run_batched ~fine:false mw Netsim.Fault.none).Parrun.run.Timings.elapsed in
  let faults =
    Netsim.Fault.random ~seed ~stations:5 ~rate:1.0 ~horizon:(1.5 *. ff) ()
  in
  List.iter
    (fun budget ->
      let o = run_batched ~fine:false ~budget mw faults in
      Alcotest.(check bool)
        (Printf.sprintf "seed=%d budget=%d terminates" seed budget)
        true
        (o.Parrun.run.Timings.elapsed > 0.0);
      Alcotest.(check (list string))
        (Printf.sprintf "seed=%d budget=%d coverage" seed budget)
        (scheduled_heads ~fine:false mw)
        (completed_heads o))
    [ 0; 2 ]

let suites =
  [
    ( "sched.pure",
      [
        Alcotest.test_case "policy names" `Quick test_policy_names;
        Alcotest.test_case "fcfs physical identity" `Quick
          test_fcfs_is_physical_identity;
        Alcotest.test_case "functions preserved" `Quick
          test_schedule_preserves_functions;
        QCheck_alcotest.to_alcotest (test_schedule_preserves_functions_random ());
        Alcotest.test_case "lpt descending" `Quick test_lpt_descending;
        Alcotest.test_case "batching merges tiny" `Quick
          test_batching_merges_tiny;
        Alcotest.test_case "batching keeps sections" `Quick
          test_batching_keeps_sections;
      ] );
    ( "sched.timings",
      [
        Alcotest.test_case "fcfs golden (fault-free)" `Quick
          test_fcfs_golden_fault_free;
        Alcotest.test_case "fcfs golden (faulted)" `Quick
          test_fcfs_golden_faulted;
        Alcotest.test_case "seqrun golden (cold/warm cache)" `Quick
          test_seqrun_golden;
        Alcotest.test_case "fine-grained golden" `Quick test_fine_grained_golden;
        Alcotest.test_case "make study golden" `Quick test_make_study_golden;
        Alcotest.test_case "batching beats fcfs on tiny" `Slow
          test_batching_beats_fcfs_on_tiny;
        Alcotest.test_case "no worse on large" `Slow
          test_policies_no_worse_on_large;
      ] );
    ( "sched.chaos",
      [
        Alcotest.test_case "chaos matrix (lpt+batch)" `Slow
          test_chaos_matrix_batched;
        Alcotest.test_case "random chaos (lpt+batch)" `Slow
          test_random_chaos_batched;
      ] );
  ]
