(* The abstract-interpretation refinement (Absint) and its integration
   into Depan, the linter, the compiler driver and the scheduler.

   Static guarantees: the interval/region lattice operations are pinned
   (join hulls, widening jumps moved bounds to infinity, unions
   normalize and respect the max-intervals knob), refutations are
   pinned on the three refinement programs (regions on the partitioned
   lattice, protocol on the dead-channel program, a no-op witness on
   the helper program), W008 downgrades to a note exactly when every
   access pair is element-disjoint, and --no-absint reproduces the base
   analyzer's edges.

   Dynamic guarantees: every pruned pair commutes in the reference
   interpreter (QCheck over worker/segment shapes), DAG-gated dispatch
   over the pruned DAG keeps the exactly-once contract under the fault
   chaos matrix with the trace-backed race oracle armed, and the static
   cost domain ranks tasks the same way the measured signal does. *)

open Parallel_cc
module A = Analysis.Absint
module D = Analysis.Depan

let cost = Driver.Cost.default
let first_section t = List.hd t.D.dp_sections

let itv =
  Alcotest.testable
    (fun fmt i -> Format.pp_print_string fmt (A.itv_to_string i))
    A.itv_equal

let region =
  Alcotest.testable
    (fun fmt r -> Format.pp_print_string fmt (A.region_to_string r))
    A.region_equal

(* --- interval lattice, pinned --- *)

let test_intervals () =
  Alcotest.check itv "join is the hull"
    { A.lo = Some 0; hi = Some 7 }
    (A.itv_join (A.itv_const 0) (A.itv_const 7));
  Alcotest.check itv "join keeps infinities"
    { A.lo = None; hi = Some 7 }
    (A.itv_join { A.lo = None; hi = Some 3 } (A.itv_const 7));
  Alcotest.check itv "widening is identity on stable bounds"
    (A.itv_const 4)
    (A.itv_widen (A.itv_const 4) (A.itv_const 4));
  Alcotest.check itv "a growing upper bound widens to +inf"
    { A.lo = Some 0; hi = None }
    (A.itv_widen { A.lo = Some 0; hi = Some 4 } { A.lo = Some 0; hi = Some 5 });
  Alcotest.check itv "a shrinking lower bound widens to -inf"
    { A.lo = None; hi = Some 4 }
    (A.itv_widen { A.lo = Some 1; hi = Some 4 } { A.lo = Some 0; hi = Some 4 });
  Alcotest.(check string)
    "rendering" "[1,+inf)"
    (A.itv_to_string { A.lo = Some 1; hi = None })

let test_regions () =
  let s lo hi = A.Slices [ { A.lo = Some lo; hi = Some hi } ] in
  Alcotest.check region "adjacent slices coalesce" (s 0 7)
    (A.region_union ~max_intervals:8 (s 0 3) (s 4 7));
  Alcotest.check region "disjoint slices stay separate"
    (A.Slices [ { A.lo = Some 0; hi = Some 1 }; { A.lo = Some 5; hi = Some 6 } ])
    (A.region_union ~max_intervals:8 (s 0 1) (s 5 6));
  (* The precision knob: more than max_intervals slices widen to All. *)
  let many =
    List.fold_left
      (fun acc k -> A.region_union ~max_intervals:2 acc (s (4 * k) ((4 * k) + 1)))
      A.Empty [ 0; 1; 2 ]
  in
  Alcotest.check region "over-budget unions widen to All" A.All many;
  Alcotest.(check bool) "disjoint slices" true (A.regions_disjoint (s 0 3) (s 4 7));
  Alcotest.(check bool) "overlap detected" false (A.regions_disjoint (s 0 4) (s 4 7));
  Alcotest.(check bool) "All overlaps everything" false (A.regions_disjoint A.All (s 9 9));
  Alcotest.(check bool) "Empty is disjoint from All" true (A.regions_disjoint A.Empty A.All)

let test_cost_units () =
  Alcotest.(check int) "midpoint" 15 (A.cost_units { A.lo = Some 10; hi = Some 20 });
  Alcotest.(check int) "unbounded loops charge 4x the floor" 20
    (A.cost_units { A.lo = Some 5; hi = None });
  Alcotest.(check int) "never below one unit" 1 (A.cost_units A.itv_zero)

(* --- widening keeps loop-carried writes conservative --- *)

(* A parameter-bound loop has an unknown trip range, so the write
   region must widen past any literal slice instead of narrowing to
   something refutable: the conflict with a literal-slice writer has
   to survive. *)
let widen_src =
  {|module widen
  section s cells 2
  var a : array[16] of float;
  function fixed(x: float) : float
    var i : int;
  begin
    for i := 0 to 3 do
      a[i] := x;
    end;
    return x;
  end
  function roaming(n: int) : float
    var i : int;
  begin
    for i := 0 to n do
      a[i] := 1.0;
    end;
    return 0.0;
  end
  end
end|}

let test_widening_blocks_refutation () =
  let m = W2.Parser.module_of_string ~file:"widen.w2" widen_src in
  W2.Semcheck.check_module_exn m;
  let sums = A.analyze_section (List.hd m.W2.Ast.sections) in
  let roam = List.assoc "roaming" sums in
  Alcotest.(check bool)
    "parameter-bound write region is not provably bounded" false
    (A.regions_disjoint (A.write_region roam "a")
       (A.Slices [ { A.lo = Some 4; hi = Some 15 } ]));
  let si = first_section (D.analyze m) in
  Alcotest.(check bool) "the global conflict survives refinement" true
    (List.exists
       (fun (f, g, rs) ->
         (f = "fixed" || g = "fixed")
         && List.mem (D.Global_conflict "a") rs)
       (D.edges_by_name si));
  Alcotest.(check int) "nothing is pruned" 0 (List.length si.D.si_pruned)

(* A recursive cycle whose cost never converges ([odd] calls [even]
   twice), and a caller listed before it.  Summaries are solved
   bottom-up, so [top] is summarized over the cycle's final, widened
   summary: its lower bound is [even]'s plus its own return, not the
   stale half a round-robin sweep would have frozen it at. *)
let cycle_src =
  {|module cycle
  section s cells 1
  function top(n: int) : int
  begin
    return even(n);
  end
  function even(n: int) : int
  begin
    if n = 0 then
      return 0;
    end;
    return odd(n - 1);
  end
  function odd(n: int) : int
  begin
    if n = 0 then
      return 1;
    end;
    return even(n - 1) + even(n - 1);
  end
  end
end|}

let test_caller_of_widened_cycle () =
  let m = W2.Parser.module_of_string ~file:"cycle.w2" cycle_src in
  W2.Semcheck.check_module_exn m;
  let sums = A.analyze_section (List.hd m.W2.Ast.sections) in
  let cost name = (List.assoc name sums).A.s_cost in
  Alcotest.check itv "even widens to an unbounded cost"
    { A.lo = Some 3068; hi = None } (cost "even");
  Alcotest.check itv "top costs even's cost plus its return"
    { A.lo = Some 3069; hi = None } (cost "top");
  Alcotest.check itv "odd is the cycle's final round"
    { A.lo = Some 6138; hi = None } (cost "odd")

(* --- refutations pinned on the refinement programs --- *)

let edge_pairs si =
  List.map (fun (f, g, _) -> (f, g)) (D.edges_by_name si) |> List.sort compare

let pruned_pairs si =
  List.map (fun (f, g, _, _) -> (f, g)) (D.pruned_by_name si)
  |> List.sort_uniq compare

let test_partitioned_prunes () =
  let m = W2.Gen.partitioned_program () in
  W2.Semcheck.check_module_exn m;
  let off = first_section (D.analyze ~absint:false m) in
  let on = first_section (D.analyze m) in
  Alcotest.(check int) "absint off leaves no prune provenance" 0
    (List.length off.D.si_pruned);
  (* Exactly the C(4,2) worker-worker conflicts disappear... *)
  Alcotest.(check int) "six worker pairs pruned" 6 (List.length on.D.si_pruned);
  List.iter
    (fun (f, g, reason, refuter) ->
      Alcotest.(check bool) (f ^ "->" ^ g ^ " is a worker pair") true
        (String.length f >= 7 && String.sub f 0 7 = "worker_"
        && String.length g >= 7 && String.sub g 0 7 = "worker_");
      Alcotest.(check string) "refuted reason" "global_conflict:lattice"
        (D.reason_to_string reason);
      Alcotest.(check string) "refuted by the region domain" "region"
        (D.refuter_to_string refuter))
    (D.pruned_by_name on);
  (* ...and nothing else: kept edges + pruned pairs = the base edges. *)
  Alcotest.(check (list (pair string string)))
    "pruned + kept partitions the base edge set"
    (edge_pairs off)
    (List.sort compare (edge_pairs on @ pruned_pairs on));
  Alcotest.(check bool) "licensed fraction strictly improves" true
    (D.licensed_fraction on > D.licensed_fraction off);
  (* The collector reads the whole lattice, so the array is NOT fully
     element-disjoint — only the worker-worker pairs are.  The W008
     downgrade set must stay empty here (the warning is a true
     positive); the fully partitioned case is pinned separately. *)
  Alcotest.(check (list string))
    "whole-array reader blocks the W008 downgrade" [] on.D.si_disjoint;
  (* The genuine worker -> collect orderings survive. *)
  List.iter
    (fun k ->
      let w = Printf.sprintf "worker_%d" k in
      Alcotest.(check bool) (w ^ " -> collect kept") true
        (List.mem (w, "collect") (edge_pairs on)))
    [ 0; 1; 2; 3 ]

let test_histogram_prunes () =
  let m = W2.Gen.histogram_program () in
  W2.Semcheck.check_module_exn m;
  let on = first_section (D.analyze m) in
  Alcotest.(check int) "six counter pairs pruned" 6 (List.length on.D.si_pruned);
  (* The helper coupling is real (inline/signature) and untouchable. *)
  List.iter
    (fun d ->
      Alcotest.(check bool)
        (Printf.sprintf "smooth -> count_%d kept" d)
        true
        (List.mem ("smooth", Printf.sprintf "count_%d" d) (edge_pairs on)))
    [ 0; 1; 2; 3 ];
  let smooth =
    Array.to_list on.D.si_funcs
    |> List.find (fun fi -> fi.D.fi_name = "smooth")
  in
  Alcotest.(check (option string))
    "the shared helper is judged pure" (Some "pure")
    (Option.map A.purity_to_string smooth.D.fi_purity);
  let counter =
    Array.to_list on.D.si_funcs
    |> List.find (fun fi -> fi.D.fi_name = "count_0")
  in
  Alcotest.(check (option string))
    "counters write their bin" (Some "effectful")
    (Option.map A.purity_to_string counter.D.fi_purity)

let test_deadchan_prunes () =
  let m = W2.Gen.deadchan_program () in
  W2.Semcheck.check_module_exn m;
  let sums = A.analyze_section (List.hd m.W2.Ast.sections) in
  Alcotest.(check bool) "probe is provably silent on X" true
    (A.chan_silent (List.assoc "probe" sums) W2.Ast.Chan_x);
  Alcotest.(check bool) "pump really sends on X" false
    (A.chan_silent (List.assoc "pump" sums) W2.Ast.Chan_x);
  let on = first_section (D.analyze m) in
  List.iter
    (fun (f, g, _, refuter) ->
      Alcotest.(check bool) (f ^ "->" ^ g ^ " involves the dead probe") true
        (f = "probe" || g = "probe");
      Alcotest.(check string) "refuted by the protocol domain" "protocol"
        (D.refuter_to_string refuter))
    (D.pruned_by_name on);
  Alcotest.(check bool) "at least one probe pairing pruned" true
    (on.D.si_pruned <> []);
  Alcotest.(check bool) "the live pump/drain pairing survives" true
    (List.exists
       (fun (f, g, rs) ->
         ((f = "pump" && g = "drain") || (f = "drain" && g = "pump"))
         && List.mem (D.Channel_pair W2.Ast.Chan_x) rs)
       (D.edges_by_name on))

let test_helper_witness () =
  (* Inline/signature edges are genuine compile-order constraints; the
     refinement must leave the helper program bit-identical. *)
  let m = W2.Gen.helper_program ~drivers:4 () in
  W2.Semcheck.check_module_exn m;
  let off = first_section (D.analyze ~absint:false m) in
  let on = first_section (D.analyze m) in
  Alcotest.(check int) "nothing pruned" 0 (List.length on.D.si_pruned);
  Alcotest.(check (list (pair string string)))
    "edges unchanged" (edge_pairs off) (edge_pairs on);
  Alcotest.(check bool) "licensed fraction unchanged" true
    (D.licensed_fraction on = D.licensed_fraction off)

(* Every access to [a] — writes and read-backs alike — stays inside
   the owner's slice, and the entry function only combines returned
   values, so the shared-global coupling is provably harmless. *)
let disjoint_src =
  {|module disjoint
  section s cells 2
  var a : array[8] of float;
  function total(seed: int) : float
    var acc : float;
  begin
    acc := low(seed);
    acc := acc + high(seed + 1);
    return acc;
  end
  function low(seed: int) : float
    var i : int;
    var acc : float;
  begin
    for i := 0 to 3 do
      a[i] := float(seed) * 0.5;
    end;
    acc := 0.0;
    for i := 0 to 3 do
      acc := acc + a[i];
    end;
    return acc;
  end
  function high(seed: int) : float
    var i : int;
    var acc : float;
  begin
    for i := 4 to 7 do
      a[i] := float(seed) * 0.25;
    end;
    acc := 0.0;
    for i := 4 to 7 do
      acc := acc + a[i];
    end;
    return acc;
  end
  end
end|}

let w008_severities ~absint m =
  D.lint (D.analyze ~absint m)
  |> List.filter (fun d -> d.W2.Diag.d_code = "W008")
  |> List.map (fun d -> d.W2.Diag.d_severity)

let test_w008_downgrade () =
  let m = W2.Parser.module_of_string ~file:"disjoint.w2" disjoint_src in
  W2.Semcheck.check_module_exn m;
  let si = first_section (D.analyze m) in
  Alcotest.(check (list string))
    "fully partitioned array is certified element-disjoint" [ "a" ]
    si.D.si_disjoint;
  Alcotest.(check int) "the low/high conflict is pruned" 1
    (List.length si.D.si_pruned);
  Alcotest.(check bool) "base analysis warns on the shared array" true
    (List.mem W2.Diag.Warning (w008_severities ~absint:false m));
  let refined = w008_severities ~absint:true m in
  Alcotest.(check bool) "refined analysis downgrades W008 to a note" true
    (refined <> [] && List.for_all (( = ) W2.Diag.Note) refined);
  (* The downgrade must not over-reach: the generator's collector reads
     the whole lattice, so there the warning is a true positive and
     survives refinement at full severity. *)
  let shared = W2.Gen.partitioned_program () in
  W2.Semcheck.check_module_exn shared;
  Alcotest.(check bool) "whole-array reader keeps the warning" true
    (List.mem W2.Diag.Warning (w008_severities ~absint:true shared))

(* --- static cost domain vs the measured cost signal --- *)

let task_names_by costf (plan : Plan.t) =
  List.concat_map snd plan.Plan.tasks_per_section
  |> List.map (fun (t : Plan.task) ->
         ((List.hd t.Plan.t_funcs).Driver.Compile.fw_name, costf t))

let test_static_cost_ranks () =
  let mw = Driver.Compile.compile_module (W2.Gen.partitioned_program ()) in
  List.iter
    (fun fw ->
      Alcotest.(check bool)
        (fw.Driver.Compile.fw_name ^ " carries static units")
        true
        (fw.Driver.Compile.fw_static_units <> None))
    (Driver.Compile.all_funcs mw);
  let plan = Plan.one_per_station mw in
  let static = task_names_by (Sched.task_cost ~static:true cost) plan in
  let measured = task_names_by (Sched.task_cost cost) plan in
  let argmax costs =
    List.fold_left (fun (bn, bc) (n, c) -> if c > bc then (n, c) else (bn, bc))
      (List.hd costs) (List.tl costs)
    |> fst
  in
  (* The collector visits every worker and the whole lattice: both
     signals must rank it heaviest. *)
  Alcotest.(check string) "static picks collect" "collect" (argmax static);
  Alcotest.(check string) "measured agrees" "collect" (argmax measured);
  let workers = List.filter (fun (n, _) -> n <> "collect") static in
  List.iter
    (fun (n, c) ->
      Alcotest.(check (float 0.0)) (n ^ " ties its siblings statically")
        (snd (List.hd workers)) c)
    workers;
  (* Turning the refinement off leaves no static signal behind. *)
  let mw_off = Driver.Compile.compile_module ~absint:false (W2.Gen.partitioned_program ()) in
  List.iter
    (fun fw ->
      Alcotest.(check bool)
        (fw.Driver.Compile.fw_name ^ " has no static units with absint off")
        true
        (fw.Driver.Compile.fw_static_units = None))
    (Driver.Compile.all_funcs mw_off)

(* --- pruned pairs are dynamically safe --- *)

(* Every pair the refinement disconnects must commute in the reference
   interpreter: same per-function results, same channel output
   streams, in either order. *)
let test_pruned_pairs_commute () =
  QCheck.Test.make ~count:30 ~name:"pruned pair => interp order-insensitive"
    QCheck.(pair (int_range 2 5) (int_range 1 4))
    (fun (workers, seg) ->
      let m = W2.Gen.partitioned_program ~workers ~seg () in
      W2.Semcheck.check_module_exn m;
      let si = first_section (D.analyze m) in
      let expected = workers * (workers - 1) / 2 in
      if List.length si.D.si_pruned <> expected then false
      else begin
        let sec = List.hd m.W2.Ast.sections in
        let args = [ W2.Interp.Vint 5; W2.Interp.Vint 3 ] in
        let play order =
          let channels, outputs =
            W2.Interp.queue_channels ~input_x:[] ~input_y:[]
          in
          let results =
            List.map
              (fun name ->
                (name, W2.Interp.run_function ~channels sec ~name ~args))
              order
          in
          (List.sort compare results, outputs ())
        in
        List.for_all
          (fun (f, g, _, _) ->
            let i = ref (-1) and j = ref (-1) in
            Array.iteri
              (fun k fi ->
                if fi.D.fi_name = f then i := k;
                if fi.D.fi_name = g then j := k)
              si.D.si_funcs;
            D.independent si !i !j
            && play [ f; g ] = play [ g; f ])
          (D.pruned_by_name si)
      end)

(* --- chaos over the pruned DAG, race oracle armed --- *)

let dag_cfg policy =
  { Config.default with Config.stations = 5; noise_seed = 0; sched_policy = policy }

let run_dag ~policy ?(budget = Config.default.Config.retry_budget) mw faults =
  (* A fresh trace per run arms the race oracle inside Parrun.run: if a
     pruned edge were real, its out-of-order dispatch would fail here. *)
  let tr = Trace.create () in
  Parrun.run
    { (dag_cfg policy) with Config.faults; retry_budget = budget; trace = tr }
    mw (Plan.one_per_station mw)

let scheduled_heads ?(static = false) ~policy mw =
  let cfg = dag_cfg policy in
  let scheduled =
    Sched.schedule ~static ~policy ~cost ~threshold:cfg.Config.batch_threshold
      ~stations:cfg.Config.stations (Plan.one_per_station mw)
  in
  List.concat_map
    (fun (_, tasks) ->
      List.map
        (fun (t : Plan.task) -> (List.hd t.Plan.t_funcs).Driver.Compile.fw_name)
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

let test_chaos_pruned_dag () =
  let mw = Driver.Compile.compile_module (W2.Gen.partitioned_program ()) in
  let si = first_section mw.Driver.Compile.mw_analysis in
  Alcotest.(check int) "the compiled plan rides the pruned DAG" 6
    (List.length si.D.si_pruned);
  List.iter
    (fun policy ->
      let expected = scheduled_heads ~policy mw in
      let ff = (run_dag ~policy mw Netsim.Fault.none).Parrun.run.Timings.elapsed in
      List.iter
        (fun (kind, event) ->
          let label = Sched.policy_name policy ^ " under " ^ kind in
          let o = run_dag ~policy mw { Netsim.Fault.events = [ event ] } in
          Alcotest.(check bool) (label ^ ": terminates") true
            (o.Parrun.run.Timings.elapsed > 0.0);
          Alcotest.(check (list string))
            (label ^ ": every dispatch unit completed exactly once")
            expected (completed_heads o))
        [
          ("crash", Netsim.Fault.Crash { station = 2; at = 0.3 *. ff });
          ("reclaim", Netsim.Fault.Reclaim { station = 2; at = 0.25 *. ff });
          ( "slowdown",
            Netsim.Fault.Slowdown
              { station = 3; from_ = 0.1 *. ff; until = 0.6 *. ff; factor = 3.0 }
          );
        ])
    [ Sched.Dag; Sched.Dag_lpt ]

let test_static_schedule_runs () =
  (* --static-cost end to end: the dispatcher must complete exactly the
     units of the statically ranked schedule (whose batching may differ
     from the measured one), race-free under the armed oracle. *)
  let mw = Driver.Compile.compile_module (W2.Gen.partitioned_program ()) in
  let cfg = { (dag_cfg Sched.Dag_lpt) with Config.static_cost = true } in
  let tr = Trace.create () in
  let o = Parrun.run { cfg with Config.trace = tr } mw (Plan.one_per_station mw) in
  Alcotest.(check bool) "terminates" true (o.Parrun.run.Timings.elapsed > 0.0);
  Alcotest.(check (list string))
    "static-cost dag+lpt completes every unit exactly once"
    (scheduled_heads ~static:true ~policy:Sched.Dag_lpt mw)
    (completed_heads o)

(* --- one body pass per converged loop, against the old re-executing
   interpreter in absint_oracle.ml --- *)

(* A section of [funcs] whose local arrays become section globals, so
   that loops record array regions as well as cost and channel use. *)
let hoisted_section (funcs : W2.Ast.func list) : W2.Ast.section =
  let is_array (d : W2.Ast.decl) = match d.dty with W2.Ast.Tarray _ -> true | _ -> false in
  let globals =
    List.fold_left
      (fun acc (d : W2.Ast.decl) ->
        if List.exists (fun (g : W2.Ast.decl) -> g.dname = d.dname) acc then acc else acc @ [ d ])
      []
      (List.concat_map (fun (f : W2.Ast.func) -> List.filter is_array f.locals) funcs)
  in
  {
    W2.Ast.sname = "s";
    cells = 1;
    globals;
    funcs =
      List.map
        (fun (f : W2.Ast.func) -> { f with locals = List.filter (fun d -> not (is_array d)) f.locals })
        funcs;
    secloc = W2.Loc.dummy;
  }

let same_summaries ~max_intervals sec =
  A.analyze_section ~max_intervals sec = Absint_oracle.analyze_section ~max_intervals sec

(* Random loop nests whose loop bounds, array indices and conditions
   read integers the loops themselves update, so each fixpoint round
   sees different trip counts and regions.  The analysis never runs the
   code, so the nests need not terminate. *)
let gen_nest name : W2.Ast.func QCheck.Gen.t =
  let open QCheck.Gen in
  let ex e = { W2.Ast.e; eloc = W2.Loc.dummy } and st s = { W2.Ast.s; sloc = W2.Loc.dummy } in
  let ints = [ "n"; "k"; "m" ] in
  let iexpr loops =
    let v = oneofl (ints @ loops) in
    frequency
      [
        (1, map (fun c -> ex (W2.Ast.Int_lit c)) (int_range (-2) 9));
        (2, map (fun v -> ex (W2.Ast.Var v)) v);
        ( 2,
          map2
            (fun v c -> ex (W2.Ast.Binary (W2.Ast.Add, ex (W2.Ast.Var v), ex (W2.Ast.Int_lit c))))
            v (int_range (-3) 3) );
      ]
  in
  let rec stmts depth loops = list_size (int_range 1 3) (stmt depth loops)
  and stmt depth loops =
    let leaves =
      [
        (3, map2 (fun v e -> st (W2.Ast.Assign (W2.Ast.Lvar v, e))) (oneofl ints) (iexpr loops));
        ( 2,
          map
            (fun i -> st (W2.Ast.Assign (W2.Ast.Lindex ("g", i), ex (W2.Ast.Float_lit 1.0))))
            (iexpr loops) );
        (1, map (fun i -> st (W2.Ast.Assign (W2.Ast.Lvar "x", ex (W2.Ast.Index ("h", i))))) (iexpr loops));
        (1, return (st (W2.Ast.Send (W2.Ast.Chan_x, ex (W2.Ast.Float_lit 0.0)))));
        (1, return (st (W2.Ast.Receive (W2.Ast.Chan_y, W2.Ast.Lvar "x"))));
      ]
    in
    if depth = 0 then frequency leaves
    else
      let v = Printf.sprintf "i%d" depth in
      frequency
        (leaves
        @ [
            ( 3,
              map3
                (fun lo hi body -> st (W2.Ast.For (v, lo, hi, body)))
                (iexpr loops) (iexpr loops)
                (stmts (depth - 1) (v :: loops)) );
            ( 2,
              map2
                (fun c body ->
                  st (W2.Ast.While (ex (W2.Ast.Binary (W2.Ast.Gt, ex (W2.Ast.Var c), ex (W2.Ast.Int_lit 0))), body)))
                (oneofl ints) (stmts (depth - 1) loops) );
            ( 1,
              map3
                (fun c t f -> st (W2.Ast.If (ex (W2.Ast.Binary (W2.Ast.Lt, ex (W2.Ast.Var "k"), c)), t, f)))
                (iexpr loops) (stmts (depth - 1) loops) (stmts (depth - 1) loops) );
          ])
  in
  let decl dname dty = { W2.Ast.dname; dty; dloc = W2.Loc.dummy } in
  map
    (fun body ->
      {
        W2.Ast.fname = name;
        params = [ { W2.Ast.pname = "n"; pty = W2.Ast.Tint; ploc = W2.Loc.dummy } ];
        ret = None;
        locals =
          [ decl "k" W2.Ast.Tint; decl "m" W2.Ast.Tint; decl "x" W2.Ast.Tfloat;
            decl "g" (W2.Ast.Tarray (16, W2.Ast.Tfloat)); decl "h" (W2.Ast.Tarray (16, W2.Ast.Tfloat)) ];
        body;
        floc = W2.Loc.dummy;
      })
    (stmts 3 [])

let prop_absint_last_round =
  QCheck.Test.make ~name:"last-round loop usage = re-executed body, summary for summary"
    ~count:200
    (QCheck.make
       ~print:(fun (fs, k) ->
         Printf.sprintf "max %d intervals\n%s" k (String.concat "\n" (List.map W2.Pretty.func_to_string fs)))
       QCheck.Gen.(pair (list_size (int_range 1 3) (gen_nest "nest")) (int_range 1 8)))
    (fun (nests, max_intervals) ->
      let funcs = List.mapi (fun i (f : W2.Ast.func) -> { f with fname = Printf.sprintf "nest%d" i }) nests in
      same_summaries ~max_intervals (hoisted_section funcs))

(* A nest the property once found (QCHECK_SEED=287487436): two
   half-unbounded write slices of [g] merge into the whole line, which
   the library kept as a [Slices] region while the oracle's extra body
   run reached [All].  [All] is the only form of the unbounded
   region. *)
let test_absint_unbounded_merge () =
  let m =
    W2.Parser.module_of_string
      "module t\n\
      \  section s cells 1\n\
      \  function nest0(n: int)\n\
      \    var k : int;\n\
      \    var m : int;\n\
      \    var x : float;\n\
      \    var g : array[16] of float;\n\
      \    var h : array[16] of float;\n\
      \  begin\n\
      \    for i3 := n to (m + 3) do\n\
      \      k := (k + 0);\n\
      \      for i2 := (m + 1) to n do\n\
      \        for i1 := 3 to (k + (0 - 2)) do\n\
      \          m := i2;\n\
      \          g[i2] := 1.0;\n\
      \        end;\n\
      \        g[(i2 + 2)] := 1.0;\n\
      \      end;\n\
      \      while (n > 0) do\n\
      \        g[i3] := 1.0;\n\
      \        receive(Y, x);\n\
      \      end;\n\
      \    end;\n\
      \  end\n\
      \  end\n\
      end\n"
  in
  let sec = hoisted_section (List.hd m.W2.Ast.sections).W2.Ast.funcs in
  Alcotest.(check bool) "library = oracle at 5 intervals" true
    (same_summaries ~max_intervals:5 sec)

let test_absint_last_round_skeletons () =
  let skeletons =
    List.map (fun size -> W2.Gen.sized_function ~name:(W2.Gen.size_name size) size) W2.Gen.all_sizes
    @ List.init 12 (fun k -> W2.Gen.function_of_lines ~name:(Printf.sprintf "f%d" k) (4 + (k * 9)))
    @ List.init 40 (fun seed ->
          W2.Gen.random_function ~allow_channels:true ~seed ~size:(5 + seed) ())
  in
  let sections =
    List.map (fun f -> hoisted_section [ f ]) skeletons
    @ List.concat_map
        (fun (m : W2.Ast.modul) -> m.sections)
        (W2.Gen.
           [
             partitioned_program ();
             histogram_program ();
             deadchan_program ();
             racy_program ();
             user_program ();
           ]
        @ W2.Gen.project_program ~modules:16 ~shape:W2.Gen.Clustered ())
  in
  List.iter
    (fun max_intervals ->
      List.iteri
        (fun i sec ->
          Alcotest.(check bool)
            (Printf.sprintf "section %d, max %d intervals" i max_intervals)
            true (same_summaries ~max_intervals sec))
        sections)
    [ 1; 2; A.default_max_intervals ]

let suites =
  [
    ( "absint.domains",
      [
        Alcotest.test_case "interval lattice pinned" `Quick test_intervals;
        Alcotest.test_case "region lattice pinned" `Quick test_regions;
        Alcotest.test_case "cost scalarization pinned" `Quick test_cost_units;
        Alcotest.test_case "widening blocks refutation" `Quick
          test_widening_blocks_refutation;
        Alcotest.test_case "caller of a widened cycle sees its final summary"
          `Quick test_caller_of_widened_cycle;
        QCheck_alcotest.to_alcotest prop_absint_last_round;
        Alcotest.test_case "last-round loop usage: unbounded slices merge to all"
          `Quick test_absint_unbounded_merge;
        Alcotest.test_case "last-round loop usage: skeletons and programs" `Quick
          test_absint_last_round_skeletons;
      ] );
    ( "absint.prune",
      [
        Alcotest.test_case "partitioned lattice prunes" `Quick
          test_partitioned_prunes;
        Alcotest.test_case "histogram prunes, helper kept" `Quick
          test_histogram_prunes;
        Alcotest.test_case "dead channel prunes" `Quick test_deadchan_prunes;
        Alcotest.test_case "helper program untouched" `Quick test_helper_witness;
        Alcotest.test_case "W008 downgrades to note" `Quick test_w008_downgrade;
        Alcotest.test_case "static cost ranks like measured" `Quick
          test_static_cost_ranks;
      ] );
    ( "absint.dynamic",
      [
        QCheck_alcotest.to_alcotest (test_pruned_pairs_commute ());
        Alcotest.test_case "chaos over the pruned DAG" `Slow
          test_chaos_pruned_dag;
        Alcotest.test_case "static-cost schedule runs race-free" `Quick
          test_static_schedule_runs;
      ] );
  ]
