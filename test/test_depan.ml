(* The interprocedural dependence analyzer (Depan) and its integration
   into scheduling and dispatch.

   Static guarantees: edge reasons are pinned on a hand-written module,
   the SCC fixpoint converges on mutual recursion (and unions effects
   across the cycle), soundness mode materializes summary-limit edges,
   and W008/W009 fire exactly where documented.

   Dynamic guarantees: on edge-free modules the dag policy reproduces
   FCFS timings bit for bit (QCheck over sizes and pools), pairs the
   analyzer calls independent commute in the reference interpreter
   (fuzzed over random programs), and DAG-gated dispatch keeps the
   exactly-once write-back contract under the fault chaos matrix while
   the trace-backed race oracle watches every run. *)

open Parallel_cc

let cost = Driver.Cost.default

let parse src =
  let m = W2.Parser.module_of_string ~file:"test.w2" src in
  W2.Semcheck.check_module_exn m;
  m

let analyze ?sound ?max_tracked ?absint src =
  Analysis.Depan.analyze ?sound ?max_tracked ?absint (parse src)

let first_section t = List.hd t.Analysis.Depan.dp_sections

(* --- edge reasons, pinned --- *)

(* One module exhibiting each reason: [tinyf] is inlinable into
   [caller]; [looper]'s self-recursion blocks inlining, leaving a
   signature-agreement edge; [wg1]/[wg2] collide on the global [g];
   [sender]/[receiver] share channel X. *)
let edges_src =
  {|module edges
  section s cells 2
  var g : float;
  function tinyf(x: float) : float
  begin
    return x * 2.0;
  end
  function looper(n: int) : int
  begin
    if n <= 0 then
      return 0;
    end;
    return looper(n - 1) + 1;
  end
  function wg1(x: float) : float
  begin
    g := x;
    return g;
  end
  function wg2(x: float) : float
  begin
    g := g + x;
    return g;
  end
  function sender(x: float) : float
  begin
    send(X, x);
    return x;
  end
  function receiver(x: float) : float
    var v : float;
  begin
    receive(X, v);
    return v + x;
  end
  function caller(x: float) : float
  begin
    return tinyf(x) + float(looper(3));
  end
  end
end
|}

let test_edge_reasons () =
  let si = first_section (analyze edges_src) in
  let edges = Analysis.Depan.edges_by_name si in
  Alcotest.(check int) "exactly four edges" 4 (List.length edges);
  List.iter
    (fun expected ->
      Alcotest.(check bool)
        (let f, t, _ = expected in
         Printf.sprintf "edge %s -> %s with pinned reasons" f t)
        true
        (List.mem expected edges))
    [
      ("tinyf", "caller", [ Analysis.Depan.Inline_of ]);
      ("looper", "caller", [ Analysis.Depan.Sig_agreement ]);
      ("wg1", "wg2", [ Analysis.Depan.Global_conflict "g" ]);
      ("sender", "receiver", [ Analysis.Depan.Channel_pair W2.Ast.Chan_x ]);
    ];
  (* The DAG structure these edges imply. *)
  Alcotest.(check bool) "wg1/wg2 dependent" true (Analysis.Depan.dependent si 2 3);
  Alcotest.(check bool) "tinyf/wg1 independent" true
    (Analysis.Depan.independent si 0 2);
  Alcotest.(check bool)
    (Printf.sprintf "licensed fraction %.3f" (Analysis.Depan.licensed_fraction si))
    true
    (Analysis.Depan.licensed_fraction si = 1.0 -. (4.0 /. 21.0))

let test_analysis_deterministic () =
  let a = Analysis.Depan.to_json (analyze edges_src) in
  let b = Analysis.Depan.to_json (analyze edges_src) in
  Alcotest.(check string) "two analyses serialize identically" a b

(* warpcc-analyze/3 keeps the document shape fixed across knobs: with
   the refinement off the absint-backed fields stay present — [pruned]
   and [disjoint_globals] as empty arrays, purity and cost as null —
   so schema consumers never need a feature probe. *)
let test_json_shape_stable_without_absint () =
  let j = Analysis.Depan.to_json (analyze ~absint:false edges_src) in
  let has s = Tutil.contains j s in
  Alcotest.(check bool) "schema /3" true
    (has "\"schema\": \"warpcc-analyze/3\"");
  Alcotest.(check bool) "kind module" true (has "\"kind\": \"module\"");
  Alcotest.(check bool) "pruned present" true (has "\"pruned\": [");
  Alcotest.(check bool) "disjoint_globals present and empty" true
    (has "\"disjoint_globals\": []");
  Alcotest.(check bool) "purity null" true (has "\"purity\": null");
  Alcotest.(check bool) "cost null" true (has "\"cost\": null");
  (* and nothing was pruned without the refinement *)
  Alcotest.(check bool) "pruned empty" true (has "\"pruned\": []")

(* --- SCC fixpoint on mutual recursion --- *)

let mrec_src =
  {|module mrec
  section s cells 1
  var a : float;
  var b : float;
  function even(n: int) : bool
  begin
    if n = 0 then
      return true;
    end;
    a := a + 1.0;
    return odd(n - 1);
  end
  function odd(n: int) : bool
  begin
    if n = 0 then
      return false;
    end;
    b := b + 1.0;
    return even(n - 1);
  end
  end
end
|}

let test_mutual_recursion () =
  let si = first_section (analyze mrec_src) in
  let f = si.Analysis.Depan.si_funcs in
  Alcotest.(check int) "one SCC" f.(0).Analysis.Depan.fi_scc
    f.(1).Analysis.Depan.fi_scc;
  (* The fixpoint unions effects around the cycle: each function's
     summary sees the global the other one writes. *)
  Array.iter
    (fun (fi : Analysis.Depan.func_info) ->
      Alcotest.(check (list string))
        (fi.Analysis.Depan.fi_name ^ " summary writes both globals")
        [ "a"; "b" ] fi.Analysis.Depan.fi_summary.Analysis.Depan.gwrites)
    f;
  Alcotest.(check bool) "direct effects stay separate" true
    (f.(0).Analysis.Depan.fi_direct.Analysis.Depan.gwrites = [ "a" ]
    && f.(1).Analysis.Depan.fi_direct.Analysis.Depan.gwrites = [ "b" ]);
  Alcotest.(check bool)
    (Printf.sprintf "fixpoint needed extra sweeps (%d)"
       si.Analysis.Depan.si_fixpoint_sweeps)
    true
    (si.Analysis.Depan.si_fixpoint_sweeps >= 2);
  (* Cycle members are serialized by a sig_agreement chain; the
     unioned summaries also make both globals conflicts. *)
  Alcotest.(check bool) "even -> odd chained" true
    (List.mem
       ( "even",
         "odd",
         [
           Analysis.Depan.Sig_agreement;
           Analysis.Depan.Global_conflict "a";
           Analysis.Depan.Global_conflict "b";
         ] )
       (Analysis.Depan.edges_by_name si))

(* --- soundness mode at the summary cap --- *)

let lim_src =
  {|module lim
  section s cells 1
  var p : float;
  var q : float;
  function fat(x: float) : float
  begin
    p := x;
    q := x;
    return p + q;
  end
  function slim(x: float) : float
  begin
    return x;
  end
  end
end
|}

let has_limit_edge si =
  List.exists
    (fun (e : Analysis.Depan.edge) ->
      List.mem Analysis.Depan.Summary_limit e.Analysis.Depan.reasons)
    si.Analysis.Depan.si_edges

let test_summary_limit () =
  (* The base mechanism, with the refinement pass held off. *)
  let sound = first_section (analyze ~absint:false ~max_tracked:1 lim_src) in
  Alcotest.(check bool) "summary marked limited" true
    sound.Analysis.Depan.si_funcs.(0).Analysis.Depan.fi_summary.Analysis.Depan.limited;
  Alcotest.(check bool) "sound mode adds a summary_limit edge" true
    (has_limit_edge sound);
  let unsound =
    first_section (analyze ~absint:false ~sound:false ~max_tracked:1 lim_src)
  in
  Alcotest.(check bool) "unsound mode omits it" false (has_limit_edge unsound);
  Alcotest.(check bool) "limited flag survives either way" true
    unsound.Analysis.Depan.si_funcs.(0).Analysis.Depan.fi_summary.Analysis.Depan.limited;
  (* The abstract interpretation tracks every global regardless of the
     cap, sees that [slim] touches nothing [fat] writes, and discharges
     the blanket edge — with provenance. *)
  let refined = first_section (analyze ~max_tracked:1 lim_src) in
  Alcotest.(check bool) "absint discharges the blanket edge" false
    (has_limit_edge refined);
  Alcotest.(check bool) "the refutation is recorded" true
    (List.exists
       (fun (_, _, reason, by) ->
         reason = Analysis.Depan.Summary_limit
         && by = Analysis.Depan.Refuted_region)
       (Analysis.Depan.pruned_by_name refined));
  (* An uncapped analysis of the same module has no limit edges. *)
  Alcotest.(check bool) "default cap is wide enough" false
    (has_limit_edge (first_section (analyze lim_src)))

(* --- the coupling lints --- *)

let codes diags = List.map (fun d -> d.W2.Diag.d_code) diags

let test_w008 () =
  (* [edges_src]: wg1 and wg2 both access g and at least one writes it,
     so the write is coupling that no activation ever observes.  One
     warning per global, blaming the first writer. *)
  let diags = Analysis.Depan.lint (analyze edges_src) in
  Alcotest.(check (list string)) "writes nobody observes draw W008" [ "W008" ]
    (codes diags);
  List.iter
    (fun d ->
      Alcotest.(check (option string)) "blames the first writer" (Some "wg1")
        d.W2.Diag.d_func)
    diags;
  (* A global its only accessor writes is private state, not coupling. *)
  Alcotest.(check (list string)) "single accessor: no W008" []
    (codes (Analysis.Depan.lint (analyze lim_src)))

let test_w009 () =
  let send_only cells =
    Printf.sprintf
      {|module m
  section s cells %d
  function f(x: float) : float
  begin
    send(X, x);
    return x;
  end
  end
end
|}
      cells
  in
  Alcotest.(check (list string)) "unmatched send, 2 cells: W009" [ "W009" ]
    (codes (Analysis.Depan.lint (analyze (send_only 2))));
  Alcotest.(check (list string)) "single cell: boundary sends are fine" []
    (codes (Analysis.Depan.lint (analyze (send_only 1))));
  (* A receiver anywhere in the section pairs the sends. *)
  Alcotest.(check (list string)) "matched send/receive: no W009" []
    (List.filter
       (fun c -> c = "W009")
       (codes (Analysis.Depan.lint (analyze edges_src))))

(* --- edge-free modules: dag must be FCFS, bit for bit --- *)

let run_with ~policy ~pool mw =
  let plan = Plan.one_per_station mw in
  let cfg =
    {
      Config.default with
      Config.stations = pool + 1;
      noise_seed = 3;
      sched_policy = policy;
    }
  in
  (Parrun.run cfg mw plan).Parrun.run

let test_edge_free_dag_is_fcfs () =
  QCheck.Test.make ~count:40 ~name:"edge-free module: dag == fcfs bit-identical"
    QCheck.(triple (int_range 1 8) (int_range 2 6) bool)
    (fun (count, pool, small) ->
      let size = if small then W2.Gen.Small else W2.Gen.Tiny in
      let mw = Experiment.s_program_work ~size ~count () in
      (* S_n programs have no calls, globals or channels: edge-free. *)
      List.iter
        (fun si ->
          assert (si.Analysis.Depan.si_edges = []))
        mw.Driver.Compile.mw_analysis.Analysis.Depan.dp_sections;
      let fcfs = run_with ~policy:Sched.Fcfs ~pool mw in
      let dag = run_with ~policy:Sched.Dag ~pool mw in
      fcfs.Timings.elapsed = dag.Timings.elapsed
      && fcfs.Timings.cpu_per_station = dag.Timings.cpu_per_station
      && fcfs.Timings.dispatch_units = dag.Timings.dispatch_units)

(* --- independent pairs commute in the reference interpreter --- *)

(* Two random functions share a section; when the analyzer calls them
   independent, interpreting them in either order must produce the
   same per-function results and the same channel output streams.
   (When both send on X the analyzer orders them with a channel_pair
   edge — exactly the case where the combined stream is order
   sensitive.) *)
let test_independent_pairs_commute () =
  QCheck.Test.make ~count:120 ~name:"independent pair => interp order-insensitive"
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let f =
        W2.Gen.random_function ~allow_channels:true ~seed
          ~size:(4 + (seed mod 17))
          ()
      in
      let g =
        {
          (W2.Gen.random_function ~allow_channels:true ~seed:(seed + 7919)
             ~size:(4 + (seed mod 23))
             ())
          with
          W2.Ast.fname = "prop_g";
        }
      in
      let m = W2.Gen.module_of_function f in
      let m =
        {
          m with
          W2.Ast.sections =
            List.map
              (fun s -> { s with W2.Ast.funcs = s.W2.Ast.funcs @ [ g ] })
              m.W2.Ast.sections;
        }
      in
      W2.Semcheck.check_module_exn m;
      let si = first_section (Analysis.Depan.analyze m) in
      if not (Analysis.Depan.independent si 0 1) then true
      else begin
        let sec = List.hd m.W2.Ast.sections in
        let args = [ W2.Interp.Vint 5; W2.Interp.Vfloat 1.5 ] in
        let play order =
          let channels, outputs =
            W2.Interp.queue_channels ~input_x:[] ~input_y:[]
          in
          let results =
            List.map
              (fun name -> (name, W2.Interp.run_function ~channels sec ~name ~args))
              order
          in
          (List.sort compare results, outputs ())
        in
        play [ f.W2.Ast.fname; "prop_g" ] = play [ "prop_g"; f.W2.Ast.fname ]
      end)

(* --- LPT tie-breaking is deterministic (and stable) --- *)

let section_names (plan : Plan.t) =
  List.map
    (fun (s, tasks) ->
      ( s,
        List.concat_map
          (fun (t : Plan.task) ->
            List.map (fun fw -> fw.Driver.Compile.fw_name) t.Plan.t_funcs)
          tasks ))
    plan.Plan.tasks_per_section

let test_lpt_tie_break () =
  (* Eight identical tiny functions: every cost estimate ties, so LPT
     must fall back to the original queue order — in full, not just as
     an unordered multiset. *)
  let plan = Plan.one_per_station (Experiment.s_program_work ~size:W2.Gen.Tiny ~count:8 ()) in
  let threshold = Config.default.Config.batch_threshold in
  let lpt = Sched.schedule ~policy:Sched.Lpt ~cost ~threshold ~stations:5 plan in
  Alcotest.(check bool) "all-ties LPT preserves FCFS order" true
    (section_names lpt = section_names plan);
  (* And scheduling is a pure function of its inputs. *)
  let again = Sched.schedule ~policy:Sched.Lpt ~cost ~threshold ~stations:5 plan in
  Alcotest.(check bool) "same inputs, same schedule" true
    (section_names again = section_names lpt);
  let mixed = Plan.one_per_station (Experiment.user_program_work ()) in
  let s1 = Sched.schedule ~policy:Sched.Lpt ~cost ~threshold ~stations:4 mixed in
  let s2 = Sched.schedule ~policy:Sched.Lpt ~cost ~threshold ~stations:4 mixed in
  Alcotest.(check bool) "mixed sizes, deterministic order" true
    (section_names s1 = section_names s2)

(* --- chaos: exactly-once write-back under DAG-gated dispatch --- *)

let dag_cfg policy =
  {
    Config.default with
    Config.stations = 5;
    noise_seed = 0;
    sched_policy = policy;
  }

let run_dag ~policy ?(budget = Config.default.Config.retry_budget) mw faults =
  let plan = Plan.one_per_station mw in
  (* A fresh trace per run arms the race oracle inside Parrun.run: any
     dependence edge dispatched out of order fails the test here. *)
  let tr = Trace.create () in
  Parrun.run
    { (dag_cfg policy) with Config.faults; retry_budget = budget; trace = tr }
    mw plan

let scheduled_heads ~policy mw =
  let cfg = dag_cfg policy in
  let scheduled =
    Sched.schedule ~policy ~cost ~threshold:cfg.Config.batch_threshold
      ~stations:cfg.Config.stations (Plan.one_per_station mw)
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

let test_chaos_dag () =
  (* The helper program's call graph gives the DAG real edges to gate
     on while stations crash underneath it. *)
  let mw = Experiment.helper_program_work () in
  List.iter
    (fun policy ->
      let expected = scheduled_heads ~policy mw in
      let ff = (run_dag ~policy mw Netsim.Fault.none).Parrun.run.Timings.elapsed in
      let plans =
        [
          ("crash", Netsim.Fault.Crash { station = 2; at = 0.3 *. ff });
          ("reclaim", Netsim.Fault.Reclaim { station = 2; at = 0.25 *. ff });
          ( "slowdown",
            Netsim.Fault.Slowdown
              { station = 3; from_ = 0.1 *. ff; until = 0.6 *. ff; factor = 3.0 }
          );
        ]
      in
      List.iter
        (fun (kind, event) ->
          List.iter
            (fun budget ->
              let label =
                Printf.sprintf "%s under %s budget=%d"
                  (Sched.policy_name policy) kind budget
              in
              let o =
                run_dag ~policy ~budget mw { Netsim.Fault.events = [ event ] }
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
    [ Sched.Dag; Sched.Dag_lpt ]

let suites =
  [
    ( "depan.static",
      [
        Alcotest.test_case "edge reasons pinned" `Quick test_edge_reasons;
        Alcotest.test_case "analysis deterministic" `Quick
          test_analysis_deterministic;
        Alcotest.test_case "json shape stable without absint" `Quick
          test_json_shape_stable_without_absint;
        Alcotest.test_case "mutual recursion fixpoint" `Quick
          test_mutual_recursion;
        Alcotest.test_case "summary-limit soundness" `Quick test_summary_limit;
        Alcotest.test_case "W008 coupling warning" `Quick test_w008;
        Alcotest.test_case "W009 unmatched send" `Quick test_w009;
        Alcotest.test_case "lpt tie-break" `Quick test_lpt_tie_break;
      ] );
    ( "depan.dynamic",
      [
        QCheck_alcotest.to_alcotest (test_edge_free_dag_is_fcfs ());
        QCheck_alcotest.to_alcotest (test_independent_pairs_commute ());
        Alcotest.test_case "chaos under dag dispatch" `Slow test_chaos_dag;
      ] );
  ]
