(* Tests for the parallel compiler: planning, the simulated runs, the
   overhead decomposition, and the headline phenomena of the paper. *)

open Parallel_cc

let medium_work count =
  Experiment.s_program_work ~size:W2.Gen.Medium ~count ()

(* --- plan --- *)

let test_plan_one_per_station () =
  let mw = medium_work 4 in
  let plan = Plan.one_per_station mw in
  Alcotest.(check int) "4 tasks" 4 (Plan.task_count plan);
  List.iter
    (fun (_, tasks) ->
      List.iter
        (fun (t : Plan.task) ->
          Alcotest.(check int) "singleton" 1 (List.length t.Plan.t_funcs))
        tasks)
    plan.Plan.tasks_per_section

let test_plan_grouped_counts () =
  let mw = Experiment.user_program_work () in
  List.iter
    (fun p ->
      let plan = Plan.grouped mw ~processors:p in
      let tasks = Plan.task_count plan in
      Alcotest.(check bool)
        (Printf.sprintf "p=%d -> %d tasks" p tasks)
        true
        (tasks >= 3 (* one per section at least *) && tasks <= max p 3))
    [ 2; 3; 5; 9 ]

let test_plan_grouped_balance () =
  (* LPT must not put the two largest functions of a section in the same
     bin when two bins are available. *)
  let mw = Experiment.user_program_work () in
  let plan = Plan.grouped mw ~processors:6 in
  List.iter
    (fun (_, tasks) ->
      let locs = List.map Plan.task_loc tasks in
      match List.sort compare locs with
      | smallest :: _ ->
        Alcotest.(check bool) "no empty task" true (smallest > 0)
      | [] -> Alcotest.fail "section lost its tasks")
    plan.Plan.tasks_per_section

let test_plan_covers_all_functions () =
  let mw = medium_work 8 in
  List.iter
    (fun plan ->
      let planned =
        List.concat_map
          (fun (_, tasks) -> List.concat_map (fun t -> t.Plan.t_funcs) tasks)
          plan.Plan.tasks_per_section
        |> List.map (fun fw -> fw.Driver.Compile.fw_name)
        |> List.sort compare
      in
      let all =
        List.map (fun fw -> fw.Driver.Compile.fw_name) (Driver.Compile.all_funcs mw)
        |> List.sort compare
      in
      Alcotest.(check (list string)) "all functions planned" all planned)
    [ Plan.one_per_station mw; Plan.grouped mw ~processors:3 ]

(* --- runs --- *)

let test_seqrun_deterministic () =
  let mw = medium_work 2 in
  let cfg = { Config.default with Config.stations = 1 } in
  let a = Seqrun.run cfg mw and b = Seqrun.run cfg mw in
  Alcotest.(check (float 1e-9)) "same elapsed" a.Timings.elapsed b.Timings.elapsed

let test_parrun_uses_stations () =
  let mw = medium_work 4 in
  let plan = Plan.one_per_station mw in
  let outcome = Parrun.run { Config.default with Config.stations = 5 } mw plan in
  Alcotest.(check int) "placements recorded" 4
    (List.length outcome.Parrun.station_of_task);
  Alcotest.(check bool) "several stations busy" true
    (outcome.Parrun.run.Timings.stations_used >= 4)

let test_parrun_pool_limits_concurrency () =
  (* With 2 stations for 4 tasks, elapsed must exceed the 4-station
     run. *)
  let mw = medium_work 4 in
  let plan = Plan.one_per_station mw in
  let wide = (Parrun.run { Config.default with Config.stations = 5 } mw plan).Parrun.run in
  let narrow = (Parrun.run { Config.default with Config.stations = 3 } mw plan).Parrun.run in
  Alcotest.(check bool)
    (Printf.sprintf "narrow %.0f > wide %.0f" narrow.Timings.elapsed wide.Timings.elapsed)
    true
    (narrow.Timings.elapsed > wide.Timings.elapsed)

let test_overhead_decomposition_consistent () =
  let mw = medium_work 4 in
  let c = Experiment.measure mw in
  Alcotest.(check (float 1e-6)) "sys = total - impl" c.Timings.sys_overhead
    (c.Timings.total_overhead -. c.Timings.impl_overhead);
  Alcotest.(check bool) "impl overhead positive" true (c.Timings.impl_overhead > 0.0)

(* --- the paper's phenomena --- *)

let test_tiny_functions_useless () =
  (* Section 4.2.1: for small functions, parallel compilation is of no
     use. *)
  let mw = Experiment.s_program_work ~size:W2.Gen.Tiny ~count:4 () in
  let c = Experiment.measure mw in
  Alcotest.(check bool)
    (Printf.sprintf "speedup %.2f <= 1" c.Timings.speedup)
    true (c.Timings.speedup <= 1.0)

let test_large_functions_win () =
  (* The headline: speedup 3-6 with <= 9 processors for big functions. *)
  let mw = Experiment.s_program_work ~size:W2.Gen.Large ~count:8 () in
  let c = Experiment.measure mw in
  Alcotest.(check bool)
    (Printf.sprintf "speedup %.2f in [3, 8]" c.Timings.speedup)
    true
    (c.Timings.speedup >= 3.0 && c.Timings.speedup <= 8.0)

let test_speedup_grows_with_functions () =
  let s n =
    (Experiment.measure (Experiment.s_program_work ~size:W2.Gen.Large ~count:n ()))
      .Timings.speedup
  in
  let s1 = s 1 and s4 = s 4 and s8 = s 8 in
  Alcotest.(check bool)
    (Printf.sprintf "%.2f < %.2f < %.2f" s1 s4 s8)
    true
    (s1 < s4 && s4 < s8)

let test_medium_negative_system_overhead () =
  (* Figure 9: at one function, the sequential compiler's own GC load
     makes the parallel compiler's system overhead negative. *)
  let mw = Experiment.s_program_work ~size:W2.Gen.Medium ~count:1 () in
  let c = Experiment.measure mw in
  Alcotest.(check bool)
    (Printf.sprintf "sys overhead %.1f%% < 0" c.Timings.rel_sys_overhead)
    true
    (c.Timings.rel_sys_overhead < 0.0)

let test_huge_worse_than_large () =
  (* Figures 6/10: f_huge falls back behind f_large. *)
  let large =
    (Experiment.measure (Experiment.s_program_work ~size:W2.Gen.Large ~count:8 ()))
      .Timings.speedup
  in
  let huge =
    (Experiment.measure (Experiment.s_program_work ~size:W2.Gen.Huge ~count:8 ()))
      .Timings.speedup
  in
  Alcotest.(check bool)
    (Printf.sprintf "huge %.2f < large %.2f" huge large)
    true (huge < large)

let test_overhead_grows_with_n () =
  (* Section 4.2.3: relative overhead increases with the number of
     functions, regardless of size. *)
  List.iter
    (fun size ->
      let ov n =
        (Experiment.measure (Experiment.s_program_work ~size ~count:n ()))
          .Timings.rel_total_overhead
      in
      let o2 = ov 2 and o8 = ov 8 in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.1f%% < %.1f%%" (W2.Gen.size_name size) o2 o8)
        true (o2 < o8))
    [ W2.Gen.Tiny; W2.Gen.Large; W2.Gen.Huge ]

let test_user_program_speedups () =
  (* Figure 11: decent speedup at 9 processors, superlinear-ish shape at
     2, and 5 processors close to 9. *)
  let pts = Experiment.user_program () in
  let speedup p =
    (List.find (fun (x : Experiment.point) -> x.Experiment.n_functions = p) pts)
      .Experiment.comparison.Timings.speedup
  in
  Alcotest.(check bool)
    (Printf.sprintf "9 procs: %.2f in [3, 5.5]" (speedup 9))
    true
    (speedup 9 >= 3.0 && speedup 9 <= 5.5);
  Alcotest.(check bool)
    (Printf.sprintf "2 procs: %.2f in [1.6, 2.6]" (speedup 2))
    true
    (speedup 2 >= 1.6 && speedup 2 <= 2.6);
  Alcotest.(check bool)
    (Printf.sprintf "5 procs (%.2f) within 15%% of 9 procs (%.2f)" (speedup 5) (speedup 9))
    true
    (speedup 5 >= 0.85 *. speedup 9)

let test_saturation () =
  (* Adding stations beyond the task count yields nothing. *)
  let points = Experiment.saturation () in
  let at n = List.assoc n points in
  Alcotest.(check bool) "2 beats 1" true (at 2 < at 1);
  Alcotest.(check bool) "8 beats 4" true (at 8 < at 4);
  Alcotest.(check bool) "12 no better than 8" true (at 12 >= at 8 -. 1.0)

(* --- ablations --- *)

let test_ablation_memory_model () =
  (* Without the memory model the negative system overhead disappears. *)
  let cfg = { Config.default with Config.memory_model = false } in
  let mw = Experiment.s_program_work ~size:W2.Gen.Medium ~count:1 () in
  let c = Experiment.measure ~cfg mw in
  Alcotest.(check bool)
    (Printf.sprintf "sys overhead %.1f%% >= 0 without memory model"
       c.Timings.rel_sys_overhead)
    true
    (c.Timings.rel_sys_overhead >= 0.0)

let test_ablation_core_download () =
  (* Without core-image downloads, tiny functions overhead shrinks. *)
  let with_dl =
    (Experiment.measure (Experiment.s_program_work ~size:W2.Gen.Tiny ~count:4 ()))
      .Timings.par.Timings.elapsed
  in
  let cfg = { Config.default with Config.core_download = false } in
  let without_dl =
    (Experiment.measure ~cfg (Experiment.s_program_work ~size:W2.Gen.Tiny ~count:4 ()))
      .Timings.par.Timings.elapsed
  in
  Alcotest.(check bool)
    (Printf.sprintf "%.0fs < %.0fs" without_dl with_dl)
    true (without_dl < with_dl)

let test_ablation_ideal_network () =
  let baseline =
    (Experiment.measure (Experiment.s_program_work ~size:W2.Gen.Small ~count:8 ()))
      .Timings.par.Timings.elapsed
  in
  let cfg = { Config.default with Config.ideal_network = true } in
  let ideal =
    (Experiment.measure ~cfg (Experiment.s_program_work ~size:W2.Gen.Small ~count:8 ()))
      .Timings.par.Timings.elapsed
  in
  Alcotest.(check bool)
    (Printf.sprintf "ideal %.0fs < real %.0fs" ideal baseline)
    true (ideal < baseline)

(* A run that never finishes must not pass for a 0 s compile: a
   process that claims a station of its host, then parks on an event
   nobody sets, leaves the simulation quiet without an [on_finish]
   report. *)
let test_unfinished_run_raises () =
  let never = Netsim.Sync.event () in
  match
    Lisp.simulate Config.default (fun h ~on_finish:_ ->
        [
          (fun () ->
            ignore (Lisp.claim h ~rank:None ~task:"parked" ~attempt:1);
            Netsim.Sync.await never);
        ])
  with
  | (r, _) -> Alcotest.failf "reported elapsed %.3f s" r.Timings.elapsed
  | exception Failure _ -> ()

let suites =
  [
    ( "parallel.plan",
      [
        Alcotest.test_case "one per station" `Quick test_plan_one_per_station;
        Alcotest.test_case "grouped counts" `Quick test_plan_grouped_counts;
        Alcotest.test_case "grouped balance" `Quick test_plan_grouped_balance;
        Alcotest.test_case "covers all functions" `Quick test_plan_covers_all_functions;
      ] );
    ( "parallel.runs",
      [
        Alcotest.test_case "sequential deterministic" `Quick test_seqrun_deterministic;
        Alcotest.test_case "stations used" `Quick test_parrun_uses_stations;
        Alcotest.test_case "pool limits concurrency" `Quick test_parrun_pool_limits_concurrency;
        Alcotest.test_case "overhead decomposition" `Quick test_overhead_decomposition_consistent;
        Alcotest.test_case "unfinished run raises" `Quick test_unfinished_run_raises;
      ] );
    ( "parallel.phenomena",
      [
        Alcotest.test_case "tiny useless" `Slow test_tiny_functions_useless;
        Alcotest.test_case "large wins 3-6x" `Slow test_large_functions_win;
        Alcotest.test_case "speedup grows with n" `Slow test_speedup_grows_with_functions;
        Alcotest.test_case "medium negative sys overhead" `Slow
          test_medium_negative_system_overhead;
        Alcotest.test_case "huge worse than large" `Slow test_huge_worse_than_large;
        Alcotest.test_case "overhead grows with n" `Slow test_overhead_grows_with_n;
        Alcotest.test_case "user program" `Slow test_user_program_speedups;
        Alcotest.test_case "saturation" `Slow test_saturation;
      ] );
    ( "parallel.ablations",
      [
        Alcotest.test_case "memory model" `Slow test_ablation_memory_model;
        Alcotest.test_case "core download" `Slow test_ablation_core_download;
        Alcotest.test_case "ideal network" `Slow test_ablation_ideal_network;
      ] );
  ]

(* --- section 5.1: inlining study --- *)

let test_inlining_study () =
  let study = Experiment.run_inlining_study () in
  Alcotest.(check bool) "calls were inlined" true (study.Experiment.calls_inlined > 0);
  Alcotest.(check bool) "fewer functions after pruning" true
    (study.Experiment.inlined_functions < study.Experiment.baseline_functions);
  Alcotest.(check bool)
    (Printf.sprintf "inlined speedup %.2f >= baseline %.2f"
       study.Experiment.inlined.Timings.speedup
       study.Experiment.baseline.Timings.speedup)
    true
    (study.Experiment.inlined.Timings.speedup
    >= study.Experiment.baseline.Timings.speedup)

(* --- domains: real parallel execution of the hierarchy --- *)

let test_domains_equivalent () =
  let m = W2.Gen.s_program ~size:W2.Gen.Small ~count:3 () in
  let result = Domains.compile_parallel ~workers:3 m in
  Alcotest.(check int) "one section" 1 (List.length result.Domains.images);
  let _, image = List.hd result.Domains.images in
  (* The domain-compiled image computes the same value as the reference
     interpreter. *)
  let sec = List.hd m.W2.Ast.sections in
  let f = List.hd sec.W2.Ast.funcs in
  let expected =
    match
      W2.Interp.run_function ~fuel:5_000_000 sec ~name:f.W2.Ast.fname
        ~args:[ W2.Interp.Vint 4; W2.Interp.Vint 1 ]
    with
    | Some (W2.Interp.Vfloat v) -> v
    | _ -> Alcotest.fail "reference failed"
  in
  match
    Warp.Cellsim.run ~fuel:50_000_000 image ~name:f.W2.Ast.fname
      ~args:[ Midend.Ir_interp.Vi 4; Midend.Ir_interp.Vi 1 ]
  with
  | Some (Midend.Ir_interp.Vf v), _ ->
    Alcotest.(check (float 1e-9)) "same value" expected v
  | _ -> Alcotest.fail "domain-compiled image failed"

(* Each section the function masters compile encodes to the same bytes
   as the sequential compiler's image, whichever master took which
   task: every shipped example, S_3 at every size, the section 4.3 and
   5.1 programs, at one to three masters, plus a one-function module
   with more masters than tasks. *)
let test_domains_images_identical () =
  let examples =
    List.map
      (fun (f, src) -> (f, W2.Parser.module_of_string src))
      (Lazy.force Tutil.examples)
  in
  Alcotest.(check bool) "found example programs" true (List.length examples >= 15);
  let generated =
    List.map
      (fun (name, size) -> (name, W2.Gen.s_program ~size ~count:3 ()))
      W2.Gen.[ ("s3 tiny", Tiny); ("s3 small", Small); ("s3 medium", Medium);
               ("s3 large", Large); ("s3 huge", Huge) ]
    @ [ ("user", W2.Gen.user_program ()); ("helper", W2.Gen.helper_program ()) ]
  in
  let check (name, m) workers =
    let encoded = List.map (fun (sec, image) -> (sec, Warp.Asm.encode image)) in
    let seq =
      (Driver.Compile.compile_module m).Driver.Compile.mw_sections
      |> List.map (fun (sw : Driver.Compile.section_work) ->
             (sw.Driver.Compile.sw_name, sw.Driver.Compile.sw_image))
    in
    Alcotest.(check (list (pair string string)))
      (Printf.sprintf "%s, %d worker(s)" name workers)
      (encoded seq)
      (encoded (Domains.compile_parallel ~workers m).Domains.images)
  in
  List.iter
    (fun prog -> List.iter (check prog) [ 1; 2; 3 ])
    (examples @ generated);
  let one = W2.Gen.s_program ~size:W2.Gen.Small ~count:1 () in
  check ("one function", one) 4

(* A function with more parameters than the register file holds passes
   semantic checking but fails in register allocation.  The compiler
   must surface that failure instead of losing it with a worker domain,
   and must not hang.  Two functions fail, and either master may take
   either of them; the first in source order is the exception raised,
   by [compile_source] on its own pool and by [Domains] with one
   function master or two. *)
let test_domains_task_failure () =
  let params =
    String.concat ", " (List.init 80 (fun i -> Printf.sprintf "p%d: int" i))
  in
  let source =
    Printf.sprintf
      "module wide\n  section s cells 1\n  function f(%s) : int\n  begin\n\
      \    return p0;\n  end\n  function g(x: int) : int\n  begin\n\
      \    return x;\n  end\n  function h(%s) : int\n  begin\n\
      \    return p1;\n  end\n  end\nend\n"
      params params
  in
  let m = W2.Parser.module_of_string source in
  Alcotest.(check int) "semcheck accepts" 0
    (List.length (W2.Semcheck.check_module m));
  let outcome f = try ignore (f ()); None with e -> Some e in
  let seq = outcome (fun () -> Driver.Compile.compile_source source) in
  Alcotest.(check (option string)) "compile_source raises"
    (Some (Printexc.to_string (Warp.Regalloc.Too_many_params "f")))
    (Option.map Printexc.to_string seq);
  List.iter
    (fun workers ->
      let par = outcome (fun () -> Domains.compile_parallel ~workers m) in
      Alcotest.(check (option string))
        (Printf.sprintf "parallel raises the same, %d worker(s)" workers)
        (Option.map Printexc.to_string seq)
        (Option.map Printexc.to_string par))
    [ 1; 2 ]

let extension_suites =
  [
    ( "parallel.extensions",
      [
        Alcotest.test_case "inlining study" `Slow test_inlining_study;
        Alcotest.test_case "domains equivalence" `Slow test_domains_equivalent;
        Alcotest.test_case "domains task failure" `Quick test_domains_task_failure;
        Alcotest.test_case "domains images identical" `Slow
          test_domains_images_identical;
      ] );
  ]

let suites = suites @ extension_suites

(* --- section 3.4: parallel make coexistence --- *)

let test_make_study_ordering () =
  let results = Experiment.run_make_study () in
  let elapsed s =
    (List.find (fun (r : Makerun.result) -> r.Makerun.strategy = s) results)
      .Makerun.elapsed
  in
  (* The paper's coexistence claim: every parallel strategy beats
     sequential, and combining parallel make with the parallel compiler
     beats either alone. *)
  Alcotest.(check bool) "make beats seq" true
    (elapsed Makerun.Parallel_make < elapsed Makerun.Sequential);
  Alcotest.(check bool) "parallel cc beats seq" true
    (elapsed Makerun.Parallel_cc < elapsed Makerun.Sequential);
  Alcotest.(check bool) "combined beats make" true
    (elapsed Makerun.Combined < elapsed Makerun.Parallel_make);
  Alcotest.(check bool) "combined beats parallel cc" true
    (elapsed Makerun.Combined < elapsed Makerun.Parallel_cc)

(* --- section 5: finer grain --- *)

let test_grain_study_tradeoff () =
  let points = Experiment.run_grain_study () in
  List.iter
    (fun (g : Experiment.grain_point) ->
      (* Fine grain pays double startup and IR shipping; on this host it
         must stay within 25% of coarse but not beat it outright — the
         reason the authors picked functions as the grain. *)
      Alcotest.(check bool)
        (Printf.sprintf "stations=%d coarse %.0f, fine %.0f" g.Experiment.gp_stations
           g.Experiment.coarse g.Experiment.fine)
        true
        (g.Experiment.fine < 1.25 *. g.Experiment.coarse
        && g.Experiment.fine > 0.9 *. g.Experiment.coarse))
    points

let coexistence_suites =
  [
    ( "parallel.coexistence",
      [
        Alcotest.test_case "make study ordering" `Slow test_make_study_ordering;
        Alcotest.test_case "grain tradeoff" `Slow test_grain_study_tradeoff;
      ] );
  ]

let suites = suites @ coexistence_suites

(* --- compare_runs sign conventions --- *)

let run_fixture ~elapsed ~master ~section ~parse =
  {
    Timings.elapsed;
    cpu_per_station = [ elapsed ];
    master_cpu = master;
    section_cpu = section;
    extra_parse_cpu = parse;
    stations_used = 1;
    dispatch_units = 1;
    retries = 0;
    stations_lost = 0;
    fallback_tasks = 0;
    wasted_cpu = 0.0;
    spec_dispatched = 0;
    spec_committed = 0;
    spec_rolled_back = 0;
    cache_hits = 0;
    cache_misses = 0;
    cache_invalidated = 0;
  }

let test_negative_system_overhead_sign () =
  (* Parallel elapsed below ideal + implementation overhead: the system
     overhead must come out negative (the paper's figures 9/10 show
     exactly this for the medium programs, where the parallel compiler
     escapes the sequential compiler's paging). *)
  let seq = run_fixture ~elapsed:1000.0 ~master:0.0 ~section:0.0 ~parse:0.0 in
  let par = run_fixture ~elapsed:120.0 ~master:10.0 ~section:15.0 ~parse:5.0 in
  let c = Timings.compare_runs ~processors:10 ~seq ~par in
  Alcotest.(check (float 1e-9)) "ideal" 100.0
    (Timings.ideal_time ~seq ~processors:10);
  Alcotest.(check (float 1e-9)) "total = par - ideal" 20.0 c.Timings.total_overhead;
  Alcotest.(check (float 1e-9)) "impl = master + section + parse" 30.0
    c.Timings.impl_overhead;
  Alcotest.(check (float 1e-9)) "sys = total - impl" (-10.0) c.Timings.sys_overhead;
  Alcotest.(check bool) "relative sys overhead negative" true
    (c.Timings.rel_sys_overhead < 0.0);
  Alcotest.(check (float 1e-9)) "relative sys in percent of par elapsed"
    (-10.0 /. 120.0 *. 100.0)
    c.Timings.rel_sys_overhead

let test_tiny_relative_overhead_exceeds_half () =
  (* Tiny functions: startup and shipping dominate, so the overhead is
     more than half the parallel elapsed time and the speedup is below
     one — both signs, fixture and measured. *)
  let seq = run_fixture ~elapsed:100.0 ~master:0.0 ~section:0.0 ~parse:0.0 in
  let par = run_fixture ~elapsed:90.0 ~master:12.0 ~section:8.0 ~parse:10.0 in
  let c = Timings.compare_runs ~processors:10 ~seq ~par in
  Alcotest.(check (float 1e-9)) "fixture relative overhead"
    (80.0 /. 90.0 *. 100.0)
    c.Timings.rel_total_overhead;
  Alcotest.(check bool) "fixture overhead beyond 50%" true
    (c.Timings.rel_total_overhead > 50.0);
  let measured =
    Experiment.measure (Experiment.s_program_work ~size:W2.Gen.Tiny ~count:4 ())
  in
  Alcotest.(check bool)
    (Printf.sprintf "measured tiny overhead %.1f%% beyond 50%%"
       measured.Timings.rel_total_overhead)
    true
    (measured.Timings.rel_total_overhead > 50.0);
  Alcotest.(check (float 1e-9)) "relative is percent of par elapsed"
    (measured.Timings.total_overhead
    /. measured.Timings.par.Timings.elapsed
    *. 100.0)
    measured.Timings.rel_total_overhead

let sign_suites =
  [
    ( "parallel.signs",
      [
        Alcotest.test_case "negative system overhead" `Quick
          test_negative_system_overhead_sign;
        Alcotest.test_case "tiny relative overhead > 50%" `Quick
          test_tiny_relative_overhead_exceeds_half;
      ] );
  ]

let suites = suites @ sign_suites

(* --- section 6: scaling limit --- *)

let test_scaling_comfort_zone () =
  (* Efficiency decays as processors grow; in the paper's own
     environment (pool capped at ~15 stations) speedup plateaus. *)
  let unlimited = Experiment.run_scaling_study () in
  let eff n =
    let p = List.find (fun (p : Experiment.point) -> p.Experiment.n_functions = n) unlimited in
    p.Experiment.comparison.Timings.speedup /. float_of_int n
  in
  Alcotest.(check bool) "efficiency decays" true (eff 32 < eff 16 && eff 16 < eff 4);
  let capped = Experiment.run_scaling_study ~max_stations:15 () in
  let speedup n =
    (List.find (fun (p : Experiment.point) -> p.Experiment.n_functions = n) capped)
      .Experiment.comparison.Timings.speedup
  in
  (* Doubling the workload from 16 to 32 functions on the fixed pool
     buys less than 30% — the plateau. *)
  Alcotest.(check bool)
    (Printf.sprintf "plateau: %.2f -> %.2f" (speedup 16) (speedup 32))
    true
    (speedup 32 < 1.3 *. speedup 16)

let scaling_suites =
  [ ("parallel.scaling", [ Alcotest.test_case "comfort zone" `Slow test_scaling_comfort_zone ]) ]

let suites = suites @ scaling_suites
