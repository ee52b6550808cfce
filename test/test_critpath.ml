(* Tests for the critical-path profiler.

   The load-bearing property is exactness: the walk's buckets must fold
   to Trace.end_time as floats — no epsilons — on every trace the
   runner can produce, so the invariant is checked across the full
   fault x policy matrix (plus a CHAOS_SEED-salted QCheck sweep).  On
   top of that: pinned golden critical paths for the shipped fir.w2 and
   coupled.w2 examples, agreement between the infinite-stations what-if
   and the Depan si_levels bound on edge-free programs, and the
   acceptance bar that profiling a finished trace never moves a
   simulated timing by a bit. *)

open Parallel_cc

let chaos_seed () =
  match Sys.getenv_opt "CHAOS_SEED" with
  | Some s -> (
    match int_of_string_opt s with Some n when n <> 0 -> n | _ -> 7)
  | None -> 7

let example = Tutil.example

(* Pool of [pool] stations + the master's; mirrors the warpcc simulate
   derivation so `warpcc profile` reproduces the same traces. *)
let cfg_for ?(policy = Sched.Fcfs) ?(faults = Netsim.Fault.none) ~pool () =
  {
    Config.default with
    Config.stations = pool + 1;
    noise_seed = 1 + (17 * pool);
    sched_policy = policy;
    faults;
  }

(* One traced run and its profile, anchored at the run's elapsed time
   (straggler attempts may record spans past it) with the scheduled
   plan wired in. *)
let run_and_profile cfg mw plan =
  let tr = Trace.create () in
  let cfg = { cfg with Config.trace = tr } in
  let { Parrun.run; scheduled; _ } = Parrun.run cfg mw plan in
  let p = Critpath.of_trace ~plan:scheduled ~elapsed:run.Timings.elapsed tr in
  (tr, run, p)

let check_exact label (run : Timings.run) (p : Critpath.profile) =
  Critpath.assert_exact p;
  let sum =
    List.fold_left (fun acc (_, v) -> acc +. v) 0.0 p.Critpath.p_buckets
  in
  Alcotest.(check (float 0.0))
    (label ^ ": buckets fold to elapsed exactly")
    run.Timings.elapsed sum;
  Alcotest.(check (float 0.0))
    (label ^ ": profile elapsed = run elapsed")
    run.Timings.elapsed p.Critpath.p_elapsed

(* --- the fault x policy matrix --- *)

let test_exact_sum_matrix () =
  let mw = Experiment.s_program_work ~size:W2.Gen.Tiny ~count:8 () in
  let pool = 4 in
  let plan = Plan.grouped mw ~processors:pool in
  let free =
    let cfg = cfg_for ~pool () in
    (Parrun.run cfg mw plan).Parrun.run.Timings.elapsed
  in
  List.iter
    (fun policy ->
      List.iter
        (fun rate ->
          let faults =
            if rate = 0.0 then Netsim.Fault.none
            else
              Netsim.Fault.random ~seed:(chaos_seed ()) ~stations:(pool + 1)
                ~rate ~horizon:(1.5 *. free) ()
          in
          let label =
            Printf.sprintf "%s rate=%.2f" (Sched.policy_name policy) rate
          in
          let cfg = cfg_for ~policy ~faults ~pool () in
          let tr, run, p = run_and_profile cfg mw plan in
          check_exact label run p;
          (* The default anchor (no run in hand) profiles the whole
             trace, straggler tail included — exactness must hold
             against [Trace.end_time] too. *)
          let pd = Critpath.of_trace tr in
          Critpath.assert_exact pd;
          Alcotest.(check (float 0.0))
            (label ^ ": default anchor folds to end_time")
            (Trace.end_time tr)
            (List.fold_left
               (fun acc (_, v) -> acc +. v)
               0.0 pd.Critpath.p_buckets))
        [ 0.0; 0.5; 1.0 ])
    Sched.policies

(* The same property under QCheck-driven seeds, budgets and pools. *)
let test_exact_sum_chaos () =
  let mw = Experiment.s_program_work ~size:W2.Gen.Tiny ~count:4 () in
  QCheck.Test.make ~count:12
    ~name:"profile buckets fold to end_time under random faults"
    QCheck.(triple (int_range 1 10_000) (int_range 0 5) (int_range 2 5))
    (fun (seed, policy_ix, pool) ->
      let policy = List.nth Sched.policies policy_ix in
      let plan = Plan.grouped mw ~processors:pool in
      let free =
        (Parrun.run (cfg_for ~policy ~pool ()) mw plan).Parrun.run
          .Timings.elapsed
      in
      let faults =
        Netsim.Fault.random
          ~seed:(seed * chaos_seed ())
          ~stations:(pool + 1) ~rate:1.0 ~horizon:(1.5 *. free) ()
      in
      let cfg = { (cfg_for ~policy ~faults ~pool ()) with Config.retry_budget = 1 } in
      let _, run, p = run_and_profile cfg mw plan in
      Critpath.assert_exact p;
      List.fold_left (fun acc (_, v) -> acc +. v) 0.0 p.Critpath.p_buckets
      = run.Timings.elapsed)

(* --- speculation: rollback windows on the path, metrics complete --- *)

let test_spec_rollback_profiled () =
  let mw = example "racy.w2" in
  let plan = Plan.one_per_station mw in
  let pool = Plan.task_count plan in
  let cfg = cfg_for ~policy:Sched.Dag_spec ~pool () in
  let tr, run, p = run_and_profile cfg mw plan in
  check_exact "racy dag+spec" run p;
  Alcotest.(check bool) "attempts rolled back" true (run.Timings.spec_rolled_back >= 1);
  (* Metrics.of_trace carries the speculation counters, derived from
     the spec-dispatch instants and spec-commit/spec-abort spans. *)
  let m = Metrics.of_trace tr in
  Alcotest.(check (float 0.0)) "spec_dispatched derived"
    (float_of_int run.Timings.spec_dispatched)
    (Metrics.counter m "spec_dispatched");
  Alcotest.(check (float 0.0)) "spec_committed derived"
    (float_of_int run.Timings.spec_committed)
    (Metrics.counter m "spec_committed");
  Alcotest.(check (float 0.0)) "spec_rolled_back derived"
    (float_of_int run.Timings.spec_rolled_back)
    (Metrics.counter m "spec_rolled_back")

(* --- edge-free agreement with the Depan si_levels bound --- *)

let test_edge_free_bound_agreement () =
  let mw = Experiment.s_program_work ~size:W2.Gen.Small ~count:8 () in
  let b = Critpath.dag_bound ~cost:Config.default.Config.cost mw in
  Alcotest.(check int) "edge-free: one antichain level" 1 b.Critpath.db_max_levels;
  let plan = Plan.one_per_station mw in
  let cfg = cfg_for ~pool:(Plan.task_count plan) () in
  let _, run, p = run_and_profile cfg mw plan in
  check_exact "edge-free S_8" run p;
  (* The profile agrees with the analysis: no dependence edge on the
     path, no dependence-wait seconds, and the infinite-stations
     what-if stays under the DAG bound (dependences are not the
     limit; compute is). *)
  Alcotest.(check (list (pair string string))) "no dependence edges crossed" []
    p.Critpath.p_dep_edges;
  Alcotest.(check (float 0.0)) "no dependence-wait" 0.0
    (List.assoc "dependence_wait" p.Critpath.p_buckets);
  let inf_stations =
    List.find
      (fun w -> w.Critpath.w_name = "infinite-stations")
      (Critpath.what_ifs p)
  in
  Alcotest.(check bool)
    (Printf.sprintf "what-if %.3f <= dag bound %.3f" inf_stations.Critpath.w_speedup
       b.Critpath.db_speedup)
    true
    (inf_stations.Critpath.w_speedup <= b.Critpath.db_speedup +. 1e-9)

(* --- pinned golden critical paths for the shipped examples --- *)

let golden label ~policy ~expect mw =
  let plan = Plan.one_per_station mw in
  let pool = Plan.task_count plan in
  let cfg = cfg_for ~policy ~pool () in
  let _, run, p = run_and_profile cfg mw plan in
  check_exact label run p;
  let dominant =
    List.fold_left
      (fun (bn, bv) (n, v) -> if v > bv then (n, v) else (bn, bv))
      ("", neg_infinity) p.Critpath.p_buckets
    |> fst
  in
  let got =
    Printf.sprintf "elapsed=%.17g segments=%d dominant=%s deps=[%s]"
      p.Critpath.p_elapsed
      (List.length p.Critpath.p_segments)
      dominant
      (String.concat ";"
         (List.map (fun (a, b) -> a ^ "->" ^ b) p.Critpath.p_dep_edges))
  in
  Alcotest.(check string) (label ^ ": golden critical path") expect got

let test_golden_fir () =
  golden "fir fcfs" ~policy:Sched.Fcfs
    ~expect:
      "elapsed=80.654066790689626 segments=25 dominant=cpu deps=[clamp->main]"
    (example "fir.w2")

let test_golden_coupled () =
  golden "coupled dag+lpt" ~policy:Sched.Dag_lpt
    ~expect:
      "elapsed=93.547721684118329 segments=34 dominant=cpu deps=[feed->drain]"
    (example "coupled.w2")

(* --- profiling never perturbs the simulation --- *)

let test_profile_never_perturbs () =
  let mw = Experiment.s_program_work ~size:W2.Gen.Tiny ~count:4 () in
  let plan = Plan.grouped mw ~processors:2 in
  let play () =
    let tr = Trace.create () in
    (tr, Parrun.run { (cfg_for ~pool:2 ()) with Config.trace = tr } mw plan)
  in
  let tr1, { Parrun.run = run1; scheduled; _ } = play () in
  let before = (Trace.span_count tr1, Trace.instant_count tr1) in
  let p = Critpath.of_trace ~plan:scheduled tr1 in
  Critpath.assert_exact p;
  ignore (Critpath.what_ifs p);
  ignore (Critpath.top p);
  ignore (Critpath.path_flows p);
  (* Profiling reads the trace; it must not grow or shrink it. *)
  Alcotest.(check (pair int int)) "trace untouched by profiling" before
    (Trace.span_count tr1, Trace.instant_count tr1);
  (* And a fresh identical run — with no profiler anywhere near it —
     reproduces the same timings bit for bit. *)
  let _, { Parrun.run = run2; _ } = play () in
  Alcotest.(check (float 0.0)) "elapsed bit-identical" run1.Timings.elapsed
    run2.Timings.elapsed;
  Alcotest.(check (list (float 0.0))) "per-station CPU bit-identical"
    run1.Timings.cpu_per_station run2.Timings.cpu_per_station

(* --- flows are well-formed hops of the path --- *)

let test_path_flows () =
  let mw = Experiment.s_program_work ~size:W2.Gen.Tiny ~count:8 () in
  (* Oversubscribe the pool so claims queue: the pool-queue-depth
     counter then has points to emit. *)
  let plan = Plan.grouped mw ~processors:4 in
  let cfg = cfg_for ~pool:2 () in
  let tr, run, p = run_and_profile cfg mw plan in
  check_exact "flows run" run p;
  let flows = Critpath.path_flows p in
  Alcotest.(check bool) "path hops between tracks" true (flows <> []);
  List.iter
    (fun (ft, t0, tt, t1) ->
      Alcotest.(check bool) "hop changes track" true (ft <> tt);
      Alcotest.(check (float 0.0)) "hop is instantaneous" t0 t1)
    flows;
  (* The chrome exporter accepts them (and the counter tracks). *)
  let json = Trace.to_chrome_json ~flows tr in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (needle ^ " present") true
        (Tutil.contains json needle))
    [
      "\"ph\": \"s\"";
      "\"ph\": \"f\"";
      "critical-path";
      "stations-busy";
      "pool-queue-depth";
      "fs-in-flight";
    ]

let suites =
  [
    ( "critpath.exact",
      [
        Alcotest.test_case "fault x policy matrix" `Slow test_exact_sum_matrix;
        QCheck_alcotest.to_alcotest (test_exact_sum_chaos ());
      ] );
    ( "critpath.spec",
      [ Alcotest.test_case "rollback profiled" `Quick test_spec_rollback_profiled ] );
    ( "critpath.bounds",
      [
        Alcotest.test_case "edge-free agrees with si_levels" `Quick
          test_edge_free_bound_agreement;
      ] );
    ( "critpath.golden",
      [
        Alcotest.test_case "fir.w2" `Quick test_golden_fir;
        Alcotest.test_case "coupled.w2" `Quick test_golden_coupled;
      ] );
    ( "critpath.purity",
      [
        Alcotest.test_case "profiling never perturbs" `Quick
          test_profile_never_perturbs;
        Alcotest.test_case "path flows" `Quick test_path_flows;
      ] );
  ]
