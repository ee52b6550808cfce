(* Chaos suite: the fault-injection layer and the recovery protocol.

   Each case runs the parallel compiler under a fault plan and checks
   the contract of Parrun's supervision: the compile terminates, every
   function of the module is compiled exactly once (placements cover
   all task heads with no duplicates — the idempotent-write-back
   guarantee), and faults only ever inflate the elapsed time.  The
   CHAOS_SEED environment variable (used by the CI chaos job) salts the
   randomized cases; all other cases are fixed-seed. *)

open Parallel_cc

let chaos_seed () =
  match Sys.getenv_opt "CHAOS_SEED" with
  | Some s -> (
    match int_of_string_opt s with Some n when n <> 0 -> n | _ -> 7)
  | None -> 7

let work () = Experiment.s_program_work ~size:W2.Gen.Tiny ~count:4 ()

(* Pool of 4 stations + the master's; noise off so elapsed differences
   come from the faults alone. *)
let base_cfg ~fine =
  {
    Config.default with
    Config.stations = 5;
    noise_seed = 0;
    fine_grained = fine;
  }

let run_with ~fine ?(budget = Config.default.Config.retry_budget) faults =
  let mw = work () in
  let plan = Plan.one_per_station mw in
  Parrun.run
    { (base_cfg ~fine) with Config.faults; retry_budget = budget }
    mw plan

let fault_free_elapsed ~fine =
  (run_with ~fine Netsim.Fault.none).Parrun.run.Timings.elapsed

(* Task-head placements, phase-3 entries dropped. *)
let completed_heads (o : Parrun.outcome) =
  List.filter_map
    (fun (name, _) ->
      let n = String.length name in
      if n >= 3 && String.sub name (n - 3) 3 = "#p3" then None else Some name)
    o.Parrun.station_of_task

(* Every function compiled exactly once, whatever happened. *)
let check_coverage label (o : Parrun.outcome) =
  let mw = work () in
  let all =
    List.map (fun fw -> fw.Driver.Compile.fw_name) (Driver.Compile.all_funcs mw)
    |> List.sort compare
  in
  let got = List.sort compare (completed_heads o) in
  Alcotest.(check (list string)) (label ^ ": all tasks completed once") all got

(* --- plan generation --- *)

let test_plan_deterministic () =
  let make () =
    Netsim.Fault.random ~seed:42 ~stations:8 ~rate:0.7 ~horizon:1000.0 ()
  in
  let a = make () and b = make () in
  Alcotest.(check bool) "same seed, same plan" true (a = b);
  Alcotest.(check bool) "plan non-trivial" true
    (List.length a.Netsim.Fault.events > 0)

let test_plan_rate_superset () =
  (* Same seed: every event of the low-rate plan appears, identically
     timed, in the high-rate plan. *)
  let plan rate =
    Netsim.Fault.random ~seed:13 ~stations:10 ~rate ~horizon:500.0 ()
  in
  let lo = plan 0.3 and hi = plan 1.0 in
  Alcotest.(check bool) "low-rate events ⊆ high-rate events" true
    (List.for_all
       (fun e -> List.mem e hi.Netsim.Fault.events)
       lo.Netsim.Fault.events);
  Alcotest.(check bool) "high rate adds events" true
    (List.length hi.Netsim.Fault.events > List.length lo.Netsim.Fault.events)

let test_plan_never_faults_master () =
  let p = Netsim.Fault.random ~seed:5 ~stations:6 ~rate:1.0 ~horizon:100.0 () in
  Alcotest.(check bool) "station 0 untouched" true
    (Netsim.Fault.crash_time p ~station:0 = infinity
    && Netsim.Fault.reclaim_time p ~station:0 = infinity
    && Netsim.Fault.station_slowdown p ~station:0 ~at:50.0 = 1.0)

(* --- zero-fault exactness and determinism --- *)

let test_zero_fault_exact () =
  (* With an empty plan no watchdog is armed, so elapsed is
     bit-identical run to run and nothing is ever retried or wasted —
     under every policy and grain. *)
  let a = fault_free_elapsed ~fine:false in
  let b = fault_free_elapsed ~fine:false in
  Alcotest.(check (float 0.0)) "bit-identical elapsed" a b;
  let check label cfg mw plan =
    let trace = Trace.create () in
    let r = (Parrun.run { cfg with Config.trace } mw plan).Parrun.run in
    Alcotest.(check int) (label ^ ": no retries") 0 r.Timings.retries;
    Alcotest.(check int) (label ^ ": no fallbacks") 0 r.Timings.fallback_tasks;
    Alcotest.(check int) (label ^ ": no stations lost") 0 r.Timings.stations_lost;
    Alcotest.(check (float 0.0)) (label ^ ": no wasted cpu") 0.0
      r.Timings.wasted_cpu;
    Alcotest.(check int) (label ^ ": no timeouts traced") 0
      (List.length
         (List.filter
            (fun (i : Trace.instant) -> i.Trace.i_name = "timeout")
            (Trace.instants trace)))
  in
  let mw = work () in
  List.iter
    (fun fine ->
      List.iter
        (fun policy ->
          check
            (Printf.sprintf "%s %s" (Sched.policy_name policy)
               (if fine then "fine" else "coarse"))
            { (base_cfg ~fine) with Config.sched_policy = policy }
            mw (Plan.one_per_station mw))
        Sched.policies)
    [ false; true ];
  (* Pool queueing on the layered 48-module project outlasts the
     per-attempt deadline: a watchdog armed without a fault plan would
     time attempts out and re-dispatch them. *)
  let mw, link =
    Experiment.link_program_work ~shape:W2.Gen.Layered ~modules:48 ()
  in
  check "layered/48 dag+spec"
    {
      Config.default with
      Config.stations = 9;
      noise_seed = 3;
      sched_policy = Sched.Dag_spec;
    }
    mw
    (Experiment.link_plan mw link)

let test_faulty_run_deterministic () =
  let plan =
    Netsim.Fault.random ~seed:99 ~stations:5 ~rate:1.0
      ~horizon:(fault_free_elapsed ~fine:false)
      ()
  in
  let a = (run_with ~fine:false plan).Parrun.run in
  let b = (run_with ~fine:false plan).Parrun.run in
  Alcotest.(check (float 0.0)) "same elapsed" a.Timings.elapsed b.Timings.elapsed;
  Alcotest.(check int) "same retries" a.Timings.retries b.Timings.retries;
  Alcotest.(check (float 0.0)) "same wasted cpu" a.Timings.wasted_cpu
    b.Timings.wasted_cpu

(* --- the chaos matrix: every fault kind x grain x retry budget --- *)

let single_event_plans ff =
  [
    ("crash", Netsim.Fault.Crash { station = 2; at = 0.3 *. ff });
    ("reclaim", Netsim.Fault.Reclaim { station = 2; at = 0.25 *. ff });
    ( "slowdown",
      Netsim.Fault.Slowdown
        { station = 3; from_ = 0.1 *. ff; until = 0.6 *. ff; factor = 3.0 } );
    ( "fs-brownout",
      Netsim.Fault.Fs_brownout
        { from_ = 0.05 *. ff; until = 0.5 *. ff; factor = 4.0 } );
    ( "ether-degrade",
      Netsim.Fault.Ether_degrade
        { from_ = 0.05 *. ff; until = 0.5 *. ff; factor = 3.0 } );
  ]

let test_chaos_matrix () =
  List.iter
    (fun fine ->
      let ff = fault_free_elapsed ~fine in
      List.iter
        (fun (kind, event) ->
          List.iter
            (fun budget ->
              let label =
                Printf.sprintf "%s %s budget=%d"
                  (if fine then "fine" else "coarse")
                  kind budget
              in
              let o =
                run_with ~fine ~budget { Netsim.Fault.events = [ event ] }
              in
              let r = o.Parrun.run in
              Alcotest.(check bool)
                (label ^ ": terminates with nonzero elapsed")
                true
                (r.Timings.elapsed > 0.0);
              (* Fine grain can deflate slightly: a fallback compiles
                 the fused phases on the master, undercutting the
                 two-claim remote schedule it replaces. *)
              let floor = if fine then 0.95 else 0.999 in
              Alcotest.(check bool)
                (Printf.sprintf "%s: elapsed %.1f >= fault-free %.1f" label
                   r.Timings.elapsed ff)
                true
                (r.Timings.elapsed >= floor *. ff);
              check_coverage label o)
            [ 0; 2 ])
        (single_event_plans ff))
    [ false; true ]

(* --- the degradation ladder: crash -> re-dispatch -> fallback --- *)

let test_budget_exhaustion_falls_back () =
  (* Every pool station dies early; a one-retry budget must exhaust and
     the section masters must finish the work on the master's own
     workstation. *)
  let ff = fault_free_elapsed ~fine:false in
  let events =
    List.map
      (fun s ->
        Netsim.Fault.Crash { station = s; at = (0.05 *. ff) +. float_of_int s })
      [ 1; 2; 3; 4 ]
  in
  let o = run_with ~fine:false ~budget:1 { Netsim.Fault.events } in
  let r = o.Parrun.run in
  Alcotest.(check bool) "terminates" true (r.Timings.elapsed > 0.0);
  Alcotest.(check int) "all pool stations lost" 4 r.Timings.stations_lost;
  Alcotest.(check bool)
    (Printf.sprintf "retries %d >= 1" r.Timings.retries)
    true (r.Timings.retries >= 1);
  Alcotest.(check bool)
    (Printf.sprintf "fallbacks %d >= 1" r.Timings.fallback_tasks)
    true
    (r.Timings.fallback_tasks >= 1);
  Alcotest.(check bool)
    (Printf.sprintf "wasted cpu %.1f > 0" r.Timings.wasted_cpu)
    true
    (r.Timings.wasted_cpu > 0.0);
  check_coverage "budget exhaustion" o

let test_crash_retries_on_live_station () =
  (* One station dies but the pool has spares: the task is re-dispatched
     and no fallback is needed. *)
  let ff = fault_free_elapsed ~fine:false in
  let plan =
    { Netsim.Fault.events = [ Netsim.Fault.Crash { station = 2; at = 0.3 *. ff } ] }
  in
  let r = (run_with ~fine:false ~budget:2 plan).Parrun.run in
  Alcotest.(check int) "one station lost" 1 r.Timings.stations_lost;
  Alcotest.(check int) "no fallback needed" 0 r.Timings.fallback_tasks

(* --- total pool loss: a golden recorded with [%.17g] ---

   matvec one function master per station under the `warpcc simulate
   --fault-seed 9 --fault-rate 1.0 --retries 1` derivation: every pool
   station is lost, attempts time out (some verdicts arrive for
   attempts already superseded), three tasks fall back to the master
   and parked stragglers run past the end.  Pinned before the
   supervisor's settle logic was folded into one place. *)

let test_total_pool_loss_golden () =
  let mw = Tutil.example "matvec.w2" in
  let plan, n_fm = Plan.for_processors mw in
  let cfg =
    {
      Config.default with
      Config.stations = n_fm + 1;
      noise_seed = 1 + (17 * n_fm);
      retry_budget = 1;
    }
  in
  let free = (Parrun.run cfg mw plan).Parrun.run in
  let faults =
    Netsim.Fault.random ~seed:9 ~stations:(n_fm + 1) ~rate:1.0
      ~horizon:(free.Timings.elapsed *. 1.5) ()
  in
  let tr = Trace.create () in
  let o = Parrun.run { cfg with Config.faults; trace = tr } mw plan in
  let r = o.Parrun.run in
  Alcotest.(check (float 0.0)) "elapsed" 1175.1298646610705 r.Timings.elapsed;
  Alcotest.(check (float 0.0)) "wasted cpu" 184.53511815474826 r.Timings.wasted_cpu;
  Alcotest.(check (list int)) "retries/lost/fallbacks" [ 3; 4; 3 ]
    [ r.Timings.retries; r.Timings.stations_lost; r.Timings.fallback_tasks ];
  Alcotest.(check (list (pair string int)))
    "placements"
    [ ("init", 0); ("main", 0); ("reduce", 3); ("wrap", 0) ]
    o.Parrun.station_of_task;
  let count name =
    List.length
      (List.filter
         (fun (i : Trace.instant) -> i.Trace.i_cat = "task" && i.Trace.i_name = name)
         (Trace.instants tr))
  in
  Alcotest.(check (list (pair string int)))
    "supervision instants"
    [ ("timeout", 6); ("attempt-lost", 1); ("retry", 3); ("wasted", 6) ]
    (List.map
       (fun n -> (n, count n))
       [ "timeout"; "attempt-lost"; "retry"; "wasted" ])

(* --- monotone inflation --- *)

let test_inflation_monotone_in_rate () =
  let ff = fault_free_elapsed ~fine:false in
  let elapsed rate =
    if rate <= 0.0 then ff
    else
      let plan =
        Netsim.Fault.random ~seed:11 ~stations:5 ~rate ~horizon:(1.5 *. ff) ()
      in
      (run_with ~fine:false plan).Parrun.run.Timings.elapsed
  in
  let e0 = elapsed 0.0 and e5 = elapsed 0.5 and e10 = elapsed 1.0 in
  Alcotest.(check bool)
    (Printf.sprintf "monotone: %.1f <= %.1f <= %.1f" e0 e5 e10)
    true
    (e0 <= e5 *. 1.001 && e5 <= e10 *. 1.001);
  Alcotest.(check bool) "full rate really hurts" true (e10 > 1.01 *. e0)

(* --- randomized smoke (salted by CHAOS_SEED in CI) --- *)

let test_random_chaos () =
  List.iter
    (fun fine ->
      let ff = fault_free_elapsed ~fine in
      let plan =
        Netsim.Fault.random
          ~seed:(chaos_seed ())
          ~stations:5 ~rate:1.0 ~horizon:(1.5 *. ff) ()
      in
      List.iter
        (fun budget ->
          let label =
            Printf.sprintf "seed=%d %s budget=%d" (chaos_seed ())
              (if fine then "fine" else "coarse")
              budget
          in
          let o = run_with ~fine ~budget plan in
          Alcotest.(check bool)
            (label ^ ": terminates")
            true
            (o.Parrun.run.Timings.elapsed > 0.0);
          Alcotest.(check bool)
            (label ^ ": no deflation")
            true
            (o.Parrun.run.Timings.elapsed >= (if fine then 0.95 else 0.999) *. ff);
          check_coverage label o)
        [ 0; 2 ])
    [ false; true ]

let suites =
  [
    ( "faults.plan",
      [
        Alcotest.test_case "deterministic" `Quick test_plan_deterministic;
        Alcotest.test_case "rate superset" `Quick test_plan_rate_superset;
        Alcotest.test_case "master immune" `Quick test_plan_never_faults_master;
      ] );
    ( "faults.recovery",
      [
        Alcotest.test_case "zero-fault exact" `Quick test_zero_fault_exact;
        Alcotest.test_case "faulty run deterministic" `Quick
          test_faulty_run_deterministic;
        Alcotest.test_case "chaos matrix" `Slow test_chaos_matrix;
        Alcotest.test_case "budget exhaustion falls back" `Quick
          test_budget_exhaustion_falls_back;
        Alcotest.test_case "crash re-dispatches" `Quick
          test_crash_retries_on_live_station;
        Alcotest.test_case "inflation monotone" `Slow
          test_inflation_monotone_in_rate;
        Alcotest.test_case "random chaos" `Slow test_random_chaos;
        Alcotest.test_case "total pool loss golden" `Quick
          test_total_pool_loss_golden;
      ] );
  ]
