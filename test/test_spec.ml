(* Speculative dispatch (dag+spec): edge confidence classification, the
   commit protocol, its interaction with fault injection, and the
   degradation knobs.

   The guarantees, by layer:
   - Depan splits edges into proven (structural: inline_of or
     sig_agreement) and speculative (data reasons only), and its
     uncapped-summary oracle marks which speculative pairs really
     conflict (hot).
   - On blinded programs (independent, but pinned by summary_limit at a
     lowered tracking cap) dag+spec overlaps every speculative edge,
     commits every attempt, and beats dag+lpt.
   - On the deliberately racy program the commit oracle rolls attempts
     back, the run terminates, every task is written back exactly once,
     and the compiled artifact is bit-identical to a sequential build.
   - dag+spec refuses a budget below 1 (no speculation is dag+lpt);
     the whole chaos matrix passes under dag+spec with the trace
     oracles armed. *)

open Parallel_cc

(* The blinded module: 4 independent workers the analyzer cannot prove
   apart (abstract interpretation off, tracking cap 8 < fan-out 24). *)
let blinded () =
  Experiment.spec_program_work ~max_tracked:8 ~absint:false ~name:"blinded4"
    (fun () -> W2.Gen.speculative_program ~workers:4 ~fanout:24 ())

let racy () =
  Experiment.spec_program_work ~absint:true ~name:"racy3" (fun () ->
      W2.Gen.racy_program ~scatters:3 ())

(* --- edge confidence and the hot-pair oracle --- *)

(* The plan's edges of the classes [keep] accepts, per section. *)
let edges_where keep (plan : Plan.t) =
  List.map (fun (s, _) -> (s, Plan.section_edges ~keep plan s)) plan.Plan.edges

let count keep plan =
  List.fold_left (fun n (_, es) -> n + List.length es) 0 (edges_where keep plan)

let test_confidence_classification () =
  let mw = blinded () in
  let plan = Plan.one_per_station mw in
  let spec_count = count (( <> ) Plan.Proven) plan in
  Alcotest.(check bool)
    (Printf.sprintf "blinded: summary_limit edges are speculative (%d)"
       spec_count)
    true (spec_count > 0);
  Alcotest.(check int) "blinded: no pair really conflicts (cold)" 0
    (count (( = ) Plan.Hot) plan);
  (* The classes follow Depan's confidence and hot flag edge by edge. *)
  List.iter
    (fun (si : Analysis.Depan.section_info) ->
      Alcotest.(check (list string))
        (si.si_name ^ ": one class per analyzer edge")
        (List.map
           (fun (e : Analysis.Depan.edge) ->
             match Analysis.Depan.edge_confidence e with
             | Analysis.Depan.Proven -> "proven"
             | Analysis.Depan.Speculative -> if e.e_hot then "hot" else "cold")
           si.si_edges)
        (List.map
           (fun (_, _, c) ->
             match c with
             | Plan.Proven -> "proven"
             | Plan.Hot -> "hot"
             | Plan.Cold -> "cold")
           (List.assoc si.si_name plan.Plan.edges)))
    mw.Driver.Compile.mw_analysis.Analysis.Depan.dp_sections

let test_racy_edges_hot () =
  let mw = racy () in
  let plan = Plan.one_per_station mw in
  List.iter
    (fun (s, es) ->
      Alcotest.(check bool)
        (s ^ ": racy conflicts survive as speculative edges")
        true (es <> []);
      Alcotest.(check (list (pair string string)))
        (s ^ ": every racy speculative edge is hot")
        es (Plan.section_edges ~keep:(( = ) Plan.Hot) plan s))
    (edges_where (( <> ) Plan.Proven) plan)

let test_structural_edges_stay_proven () =
  (* The helper program's edges are all inline_of/sig_agreement:
     nothing to speculate past, so dag+spec degenerates to gating
     every edge. *)
  let mw = Experiment.helper_program_work () in
  let plan = Plan.one_per_station mw in
  List.iter
    (fun (s, es) ->
      Alcotest.(check int) (s ^ ": no speculative edges") 0 (List.length es))
    (edges_where (( <> ) Plan.Proven) plan)

(* --- the sweep: speculation wins where analysis was conservative --- *)

let test_spec_sweep () =
  let rows = Experiment.spec_sweep () in
  Alcotest.(check int) "three series" 3 (List.length rows);
  List.iter
    (fun (row : Experiment.row) ->
      let int key =
        match List.assoc key row with
        | Stats.Json.Int n -> n
        | _ -> Alcotest.failf "%s is not an Int" key
      in
      let float key =
        match List.assoc key row with
        | Stats.Json.Fixed (_, x) | Stats.Json.Exact x -> x
        | _ -> Alcotest.failf "%s is not a float" key
      in
      let series =
        match List.assoc "series" row with
        | Stats.Json.Str s -> s
        | _ -> Alcotest.fail "series is not a Str"
      in
      let spec = float "elapsed_spec" and lpt = float "elapsed_lpt" in
      Alcotest.(check int) (series ^ ": race-free") 0 (int "race_violations");
      Alcotest.(check bool)
        (Printf.sprintf "%s: dag+spec %.1f <= dag+lpt %.1f" series spec lpt)
        true (spec <= lpt);
      if String.length series >= 7 && String.sub series 0 7 = "blinded" then begin
        Alcotest.(check bool)
          (series ^ ": strictly faster than dag+lpt")
          true (spec < lpt);
        Alcotest.(check int)
          (series ^ ": every speculation committed")
          (int "spec_dispatched") (int "spec_committed");
        Alcotest.(check int) (series ^ ": no rollbacks") 0 (int "spec_rolled_back")
      end
      else begin
        Alcotest.(check bool)
          (series ^ ": misspeculation detected")
          true
          (int "spec_rolled_back" >= 1);
        Alcotest.(check bool) (series ^ ": hot edges present") true (int "hot_edges" > 0)
      end)
    rows

(* --- the racy program: rollback, exactly-once, identical artifact --- *)

let all_heads mw =
  List.map
    (fun fw -> fw.Driver.Compile.fw_name)
    (Driver.Compile.all_funcs mw)
  |> List.sort compare

(* Under dag+spec the proven edges rarely split levels, so tiny tasks
   can batch into shared dispatch units; coverage is then checked
   against the scheduled plan's unit heads (the test_sched idiom). *)
let spec_scheduled_heads ~stations mw =
  let scheduled =
    Sched.schedule ~policy:Sched.Dag_spec ~cost:Config.default.Config.cost
      ~threshold:Sched.batch_threshold ~stations
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

let spec_cfg ?(stations = 4) ?(budget = Config.default.Config.spec_budget) () =
  {
    Config.default with
    Config.stations;
    noise_seed = 3;
    sched_policy = Sched.Dag_spec;
    spec_budget = budget;
  }

let test_racy_rolls_back_and_recovers () =
  let mw = racy () in
  let plan = Plan.one_per_station mw in
  let tr = Trace.create () in
  let o = Parrun.run { (spec_cfg ()) with Config.trace = tr } mw plan in
  (* Parrun already asserted the trace matches the counters and the
     speculation-aware race oracle on this fresh trace. *)
  Alcotest.(check bool) "at least one rollback" true
    (o.Parrun.run.Timings.spec_rolled_back >= 1);
  Alcotest.(check (list string))
    "every task written back exactly once"
    (spec_scheduled_heads ~stations:4 mw)
    (completed_heads o);
  (* The racy tasks sit above the batch threshold, so no units merged
     and the unit heads really are all three scatter functions. *)
  Alcotest.(check (list string))
    "racy units are unmerged" (all_heads mw)
    (spec_scheduled_heads ~stations:4 mw);
  Alcotest.(check int) "dispatched = committed + rolled back"
    o.Parrun.run.Timings.spec_dispatched
    (o.Parrun.run.Timings.spec_committed
    + o.Parrun.run.Timings.spec_rolled_back);
  (* Rolled-back attempts' CPU lands in the wasted account. *)
  Alcotest.(check bool) "rollbacks charged to wasted_cpu" true
    (o.Parrun.run.Timings.wasted_cpu > 0.0)

let test_racy_artifact_schedule_independent () =
  (* The compiled artifact is a pure function of the source: however
     many rollbacks the simulated schedule takes, the object code is
     the sequential compiler's, bit for bit. *)
  let source = W2.Pretty.module_to_string (W2.Gen.racy_program ()) in
  let a = Driver.Compile.compile_source source in
  let b = Driver.Compile.compile_source source in
  Alcotest.(check int) "identical image bytes"
    (Driver.Compile.total_image_bytes a)
    (Driver.Compile.total_image_bytes b);
  List.iter2
    (fun (sa : Driver.Compile.section_work) (sb : Driver.Compile.section_work) ->
      Alcotest.(check bool)
        (sa.Driver.Compile.sw_name ^ ": identical section image")
        true
        (sa.Driver.Compile.sw_image = sb.Driver.Compile.sw_image))
    a.Driver.Compile.mw_sections b.Driver.Compile.mw_sections

(* --- supervision goldens ---

   Recorded with [%.17g] before the commit/abort protocol settled in
   one place.  The racy module on a pool of 3: at speculation budget 1
   every task hardens after its first abort (it then awaits every
   speculative predecessor before relaunching), at budget 2 one task
   aborts twice.  Elapsed, wasted CPU, the speculation counters and
   the placements must not move. *)

let golden_racy_budget =
  [
    ( 1,
      ( 192.96592356277543,
        91.101083492876853,
        (2, 0, 2),
        [ ("scatter_0", 1); ("scatter_1", 1); ("scatter_2", 2) ] ) );
    ( 2,
      ( 196.40874414967149,
        137.2449349991027,
        (3, 0, 3),
        [ ("scatter_0", 1); ("scatter_1", 1); ("scatter_2", 3) ] ) );
  ]

let test_supervision_golden () =
  let mw = racy () in
  List.iter
    (fun (budget, (elapsed, wasted, (dispatched, committed, rolled), placed)) ->
      let what = Printf.sprintf "budget %d" budget in
      let o =
        Parrun.run
          { (spec_cfg ~budget ()) with Config.trace = Trace.create () }
          mw (Plan.one_per_station mw)
      in
      let r = o.Parrun.run in
      Alcotest.(check (float 0.0)) (what ^ " elapsed") elapsed r.Timings.elapsed;
      Alcotest.(check (float 0.0)) (what ^ " wasted cpu") wasted r.Timings.wasted_cpu;
      Alcotest.(check (list int))
        (what ^ " dispatched/committed/rolled back")
        [ dispatched; committed; rolled ]
        [ r.Timings.spec_dispatched; r.Timings.spec_committed;
          r.Timings.spec_rolled_back ];
      Alcotest.(check (list (pair string int)))
        (what ^ " placements") placed o.Parrun.station_of_task)
    golden_racy_budget

(* Batching under dag+spec levels by the proven edges only, so it can
   merge two tasks that a third couples to over hot edges in both
   directions; the two staged attempts would then await each other.
   Every width of the racy module must finish on every pool size, with
   the speculation-aware race oracle (armed on the fresh trace) clean
   and every unit written back exactly once. *)
let test_racy_pools_finish () =
  List.iter
    (fun scatters ->
      let mw =
        Experiment.spec_program_work ~absint:true
          ~name:(Printf.sprintf "racy%d" scatters) (fun () ->
            W2.Gen.racy_program ~scatters ())
      in
      List.iter
        (fun pool ->
          let label = Printf.sprintf "racy%d pool %d" scatters pool in
          let o =
            Parrun.run
              { (spec_cfg ~stations:(pool + 1) ()) with Config.trace = Trace.create () }
              mw (Plan.one_per_station mw)
          in
          Alcotest.(check bool)
            (label ^ ": finishes")
            true
            (o.Parrun.run.Timings.elapsed > 0.0);
          Alcotest.(check (list string))
            (label ^ ": every unit written back exactly once")
            (spec_scheduled_heads ~stations:(pool + 1) mw)
            (completed_heads o))
        [ 2; 3; 4; 5; 6 ])
    [ 3; 4; 5; 6 ]

(* --- degradation: a dag+spec run must be allowed to speculate --- *)

let test_budget_zero_rejected () =
  let mw = racy () in
  match Parrun.run (spec_cfg ~budget:0 ()) mw (Plan.one_per_station mw) with
  | _ -> Alcotest.fail "dag+spec ran with spec_budget 0"
  | exception Invalid_argument _ -> ()

let test_nonspec_policies_keep_zero_counters () =
  let mw = blinded () in
  let plan = Plan.one_per_station mw in
  List.iter
    (fun policy ->
      let cfg =
        { (spec_cfg ~stations:5 ()) with Config.sched_policy = policy }
      in
      let r = (Parrun.run cfg mw plan).Parrun.run in
      Alcotest.(check int)
        (Sched.policy_name policy ^ ": zero spec counters")
        0
        (r.Timings.spec_dispatched + r.Timings.spec_committed
       + r.Timings.spec_rolled_back))
    [ Sched.Fcfs; Sched.Lpt; Sched.Lpt_batch; Sched.Dag; Sched.Dag_lpt ]

(* --- the chaos matrix under dag+spec --- *)

(* Every fault kind crossed with coarse/fine grain and retry budgets,
   on both the racy and the blinded module.  Each run is freshly
   traced, so Parrun's oracles (trace-vs-counters and the
   speculation-aware race check) arm themselves; on top we require
   termination and exactly-once write-back. *)
let test_chaos_matrix_spec () =
  List.iter
    (fun (mname, mw) ->
      let plan = Plan.one_per_station mw in
      let run ?(budget = Config.default.Config.retry_budget) ~fine faults =
        let cfg =
          {
            (spec_cfg ()) with
            Config.fine_grained = fine;
            faults;
            retry_budget = budget;
            trace = Trace.create ();
          }
        in
        Parrun.run cfg mw plan
      in
      let expected = spec_scheduled_heads ~stations:4 mw in
      let ff =
        (run ~fine:false Netsim.Fault.none).Parrun.run.Timings.elapsed
      in
      let fault_plans =
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
        (fun fine ->
          List.iter
            (fun (kind, event) ->
              List.iter
                (fun budget ->
                  let label =
                    Printf.sprintf "%s %s %s budget=%d" mname
                      (if fine then "fine" else "coarse")
                      kind budget
                  in
                  let o =
                    run ~budget ~fine { Netsim.Fault.events = [ event ] }
                  in
                  Alcotest.(check bool)
                    (label ^ ": terminates")
                    true
                    (o.Parrun.run.Timings.elapsed > 0.0);
                  Alcotest.(check (list string))
                    (label ^ ": exactly-once write-back")
                    expected (completed_heads o))
                [ 0; 2 ])
            fault_plans)
        [ false; true ])
    [ ("racy", racy ()); ("blinded", blinded ()) ]

(* --- properties: backoff monotonicity, stragglers are wasted --- *)

let test_backoff_monotone () =
  QCheck.Test.make ~count:200 ~name:"exponential backoff is monotone"
    QCheck.(int_range 0 20)
    (fun step ->
      let d0 = Config.backoff_delay ~step in
      let d1 = Config.backoff_delay ~step:(step + 1) in
      d0 >= Config.retry_backoff_seconds && d1 >= d0 && d1 = 2.0 *. d0)

(* A slowdown (never a crash) stretches one station: any timeout-driven
   re-dispatch leaves a straggler that eventually finishes, and whoever
   loses the race — straggler or re-dispatch — must be charged to
   wasted_cpu. *)
let test_straggler_charged_to_wasted () =
  QCheck.Test.make ~count:25 ~name:"beaten stragglers land in wasted_cpu"
    QCheck.(pair (int_range 2 4) (float_range 2.5 8.0))
    (fun (station, factor) ->
      let mw = Experiment.s_program_work ~size:W2.Gen.Small ~count:4 () in
      let plan = Plan.one_per_station mw in
      let ff =
        (Parrun.run
           { Config.default with Config.stations = 5; noise_seed = 3 }
           mw plan)
          .Parrun.run.Timings.elapsed
      in
      let faults =
        {
          Netsim.Fault.events =
            [
              Netsim.Fault.Slowdown
                { station; from_ = 0.0; until = 2.0 *. ff; factor };
            ];
        }
      in
      let r =
        (Parrun.run
           { Config.default with Config.stations = 5; noise_seed = 3; faults }
           mw plan)
          .Parrun.run
      in
      (* No stations are ever lost to a slowdown, so a retry implies a
         straggler raced a re-dispatch and the loser was superseded. *)
      r.Timings.stations_lost = 0
      && (r.Timings.retries = 0 || r.Timings.wasted_cpu > 0.0))

let suites =
  [
    ( "spec.analysis",
      [
        Alcotest.test_case "confidence classification" `Quick
          test_confidence_classification;
        Alcotest.test_case "racy edges are hot" `Quick test_racy_edges_hot;
        Alcotest.test_case "structural edges stay proven" `Quick
          test_structural_edges_stay_proven;
      ] );
    ( "spec.runtime",
      [
        Alcotest.test_case "spec sweep" `Slow test_spec_sweep;
        Alcotest.test_case "racy rolls back and recovers" `Quick
          test_racy_rolls_back_and_recovers;
        Alcotest.test_case "racy artifact schedule-independent" `Quick
          test_racy_artifact_schedule_independent;
        Alcotest.test_case "spec-budget 0 rejected" `Quick
          test_budget_zero_rejected;
        Alcotest.test_case "non-spec policies keep zero counters" `Quick
          test_nonspec_policies_keep_zero_counters;
        Alcotest.test_case "supervision golden (spec budget 1/2)" `Quick
          test_supervision_golden;
        Alcotest.test_case "racy finishes on every pool" `Quick
          test_racy_pools_finish;
      ] );
    ( "spec.chaos",
      [ Alcotest.test_case "chaos matrix (dag+spec)" `Slow test_chaos_matrix_spec ] );
    ( "spec.props",
      [
        QCheck_alcotest.to_alcotest (test_backoff_monotone ());
        QCheck_alcotest.to_alcotest (test_straggler_charged_to_wasted ());
      ] );
  ]
