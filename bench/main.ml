(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (section 4) on the simulated 1989 host, and the seeded
   BENCH_*.json sweeps.  `main.exe --help` lists the targets. *)

open Parallel_cc
module Json = Stats.Json

(* --- one table printer for every figure and sweep --- *)

(* One column per field; nested objects flatten to "key.field" columns
   over every row's fields, "-" where a row lacks one.  [notes] print
   under the table. *)
let print_rows ?(notes = []) title (rows : Experiment.row list) =
  let rec flat prefix row =
    List.concat_map
      (fun (k, v) ->
        match v with
        | Json.Obj sub -> flat (prefix ^ k ^ ".") sub
        | v -> [ (prefix ^ k, v) ])
      row
  in
  let rows = List.map (flat "") rows in
  let columns =
    List.fold_left
      (fun cols row ->
        cols @ List.filter (fun k -> not (List.mem k cols)) (List.map fst row))
      [] rows
  in
  let cell = function
    | Some (Json.Exact x) -> Printf.sprintf "%.3f" x
    | Some (Json.Str s) -> s
    | Some v -> String.trim (Json.to_string v)
    | None -> "-"
  in
  Stats.Table.print
    (List.fold_left
       (fun table row ->
         Stats.Table.add_row table
           (List.map (fun c -> cell (List.assoc_opt c row)) columns))
       (Stats.Table.make ~title ~columns)
       rows);
  List.iter print_endline notes;
  print_newline ()

(* --- the paper's figures as rows --- *)

(* Figure cells print with two decimals; times in minutes. *)
let fixed x = Json.Fixed (2, x)
let minutes x = fixed (x /. 60.0)

(* Experiment results are deterministic; compute one series per size. *)
let series =
  List.map
    (fun size -> (size, lazy (Experiment.size_series size)))
    W2.Gen.all_sizes

let size_points size = Lazy.force (List.assoc size series)

let point_at size n =
  List.find
    (fun (p : Experiment.point) -> p.Experiment.n_functions = n)
    (size_points size)

let speedup (p : Experiment.point) = p.Experiment.comparison.Timings.speedup

(* Each figure: its `--help` line, its title and its rows. *)
let time_series size =
  let name = W2.Gen.size_name size in
  ( "execution times, " ^ name,
    Printf.sprintf "execution times for %s (minutes)" name,
    fun () ->
      List.map
        (fun (p : Experiment.point) ->
          let c = p.Experiment.comparison in
          [
            ("functions", Json.Int p.Experiment.n_functions);
            ("elapsed seq", minutes c.Timings.seq.Timings.elapsed);
            ("cpu seq", minutes (Timings.max_cpu c.Timings.seq));
            ("elapsed par", minutes c.Timings.par.Timings.elapsed);
            ("cpu par (max/proc)", minutes (Timings.max_cpu c.Timings.par));
          ])
        (size_points size) )

let overheads ~relative sizes =
  let kind = if relative then " %" else " (s)" in
  ( Printf.sprintf "%s overheads, %s"
      (if relative then "relative" else "absolute")
      (String.concat " + " (List.map W2.Gen.size_name sizes)),
    (if relative then "relative overhead (percentage of parallel elapsed time)"
     else "absolute overhead (seconds)"),
    fun () ->
      List.map
        (fun n ->
          ("functions", Json.Int n)
          :: List.concat_map
               (fun size ->
                 let c = (point_at size n).Experiment.comparison in
                 let name = W2.Gen.size_name size in
                 let total, system =
                   if relative then
                     (c.Timings.rel_total_overhead, c.Timings.rel_sys_overhead)
                   else (c.Timings.total_overhead, c.Timings.sys_overhead)
                 in
                 [
                   (name ^ " total" ^ kind, fixed total);
                   (name ^ " system" ^ kind, fixed system);
                 ])
               sizes)
        Experiment.function_counts )

let figures =
  [
    (3, time_series W2.Gen.Tiny);
    (4, time_series W2.Gen.Large);
    (5, time_series W2.Gen.Huge);
    ( 6,
      ( "speedup over the sequential compiler",
        "speedup over sequential compiler",
        fun () ->
          List.map
            (fun n ->
              ("functions", Json.Int n)
              :: List.map
                   (fun size ->
                     (W2.Gen.size_name size, fixed (speedup (point_at size n))))
                   W2.Gen.all_sizes)
            Experiment.function_counts ) );
    ( 7,
      ( "speedup versus function size",
        "speedup versus function size (lines of code)",
        fun () ->
          List.map
            (fun size ->
              ("lines", Json.Int (W2.Gen.size_lines size))
              :: List.map
                   (fun n ->
                     ( Printf.sprintf "%d function(s)" n,
                       fixed (speedup (point_at size n)) ))
                   Experiment.function_counts)
            W2.Gen.all_sizes ) );
    (8, overheads ~relative:true [ W2.Gen.Tiny; W2.Gen.Small ]);
    (9, overheads ~relative:true [ W2.Gen.Medium; W2.Gen.Large ]);
    (10, overheads ~relative:true [ W2.Gen.Huge ]);
    ( 11,
      ( "speedup for the user program",
        "speedup for a user program (3 sections x 3 functions, grouped by \
         the load-balancing heuristic)",
        fun () ->
          List.map
            (fun (p : Experiment.point) ->
              let c = p.Experiment.comparison in
              [
                ("processors", Json.Int p.Experiment.n_functions);
                ("elapsed seq (min)", minutes c.Timings.seq.Timings.elapsed);
                ("elapsed par (min)", minutes c.Timings.par.Timings.elapsed);
                ("speedup", fixed c.Timings.speedup);
              ])
            (Experiment.user_program ()) ) );
    (12, time_series W2.Gen.Small);
    (13, time_series W2.Gen.Medium);
    (14, overheads ~relative:false [ W2.Gen.Tiny; W2.Gen.Small ]);
    (15, overheads ~relative:false [ W2.Gen.Medium; W2.Gen.Large ]);
    (16, overheads ~relative:false [ W2.Gen.Huge ]);
  ]

let print_figure (n, (_, title, rows)) =
  print_rows (Printf.sprintf "Figure %d: %s" n title) (rows ())

(* --- section 4.2.2: saturation --- *)

let print_saturation () =
  print_rows
    "Saturation (cf. section 4.2.2): elapsed time of S_8 f_medium versus \
     workstation pool size"
    (List.map
       (fun (stations, elapsed) ->
         [
           ("stations", Json.Int stations);
           ("elapsed par (min)", minutes elapsed);
         ])
       (Experiment.saturation ()))

(* --- ablations --- *)

let print_ablations () =
  let at ~cfg size count =
    Experiment.measure ~cfg (Experiment.s_program_work ~size ~count ())
  in
  print_rows "Ablations (DESIGN.md section 5): what breaks each paper phenomenon"
    (List.map
       (fun (ab : Experiment.ablation) ->
         let cfg = ab.Experiment.ab_cfg in
         [
           ("configuration", Json.Str ab.Experiment.ab_name);
           ( "medium n=1 sys ov %",
             fixed (at ~cfg W2.Gen.Medium 1).Timings.rel_sys_overhead );
           ("tiny n=4 speedup", fixed (at ~cfg W2.Gen.Tiny 4).Timings.speedup);
           ( "huge n=8 rel ov %",
             fixed (at ~cfg W2.Gen.Huge 8).Timings.rel_total_overhead );
           ("large n=8 speedup", fixed (at ~cfg W2.Gen.Large 8).Timings.speedup);
         ])
       Experiment.ablations);
  (* Grouping ablation: the section-4.3 heuristic versus one function
     per processor on the user program. *)
  let mw = Experiment.user_program_work () in
  print_rows "Ablation: load balancing on the user program"
    (List.map
       (fun (policy, (c : Timings.comparison)) ->
         [
           ("policy", Json.Str policy);
           ("processors", Json.Int c.Timings.processors);
           ("speedup", fixed c.Timings.speedup);
         ])
       [
         ("one function per processor", Experiment.measure mw);
         ("grouped (LoC x nesting, LPT)", Experiment.measure ~processors:5 mw);
       ])

(* --- section 3.4: parallel make coexistence --- *)

let print_make_study () =
  print_rows
    "Build strategies for a 4-module system (cf. section 3.4: 'both          \
     approaches could coexist')"
    (List.map
       (fun (r : Makerun.result) ->
         [
           ("strategy", Json.Str (Makerun.strategy_name r.Makerun.strategy));
           ("elapsed (min)", minutes r.Makerun.elapsed);
         ])
       (Experiment.run_make_study ()))

(* --- section 5: finer-grain parallelism --- *)

let print_grain_study () =
  print_rows
    "Finer grain (phase-pipelined) vs the paper's coarse grain, S_8          \
     f_medium (cf. section 5: 'further advances have to explore finer          \
     grain parallelism')"
    ~notes:
      [
        "On this host the extra Lisp startup and IR shipping outweigh the";
        "stage pipelining — which is exactly why the authors chose functions";
        "as the grain (section 3.3).";
      ]
    (List.map
       (fun (g : Experiment.grain_point) ->
         [
           ("stations", Json.Int g.Experiment.gp_stations);
           ("coarse (min)", minutes g.Experiment.coarse);
           ("fine (min)", minutes g.Experiment.fine);
         ])
       (Experiment.run_grain_study ()))

(* --- section 5.1: inlining --- *)

let print_inlining_study () =
  let study = Experiment.run_inlining_study () in
  print_rows "Inlining as grain coarsening (section 5.1)"
    (List.map
       (fun (variant, funcs, (c : Timings.comparison)) ->
         [
           ("variant", Json.Str variant);
           ("functions", Json.Int funcs);
           ("seq (min)", minutes c.Timings.seq.Timings.elapsed);
           ("par (min)", minutes c.Timings.par.Timings.elapsed);
           ("speedup", fixed c.Timings.speedup);
         ])
       [
         ( "as written",
           study.Experiment.baseline_functions,
           study.Experiment.baseline );
         ( "inlined + pruned",
           study.Experiment.inlined_functions,
           study.Experiment.inlined );
       ])

(* --- section 6: scaling limit --- *)

let print_scaling () =
  let unlimited = Experiment.run_scaling_study () in
  let capped = Experiment.run_scaling_study ~max_stations:15 () in
  print_rows
    "Scaling (section 6: '8 to 16 processors can be used comfortably'),          \
     f_large"
    (List.map2
       (fun (u : Experiment.point) (c : Experiment.point) ->
         let n = u.Experiment.n_functions in
         [
           ("functions", Json.Int n);
           ("speedup (pool = n)", fixed (speedup u));
           ("efficiency", fixed (speedup u /. float_of_int n));
           ("speedup (pool <= 15)", fixed (speedup c));
         ])
       unlimited capped)

(* --- code quality: what the optimizer levels buy on the machine --- *)

let print_codegen_ablation () =
  let measure level =
    let m =
      W2.Gen.module_of_function (W2.Gen.sized_function ~name:"k" W2.Gen.Small)
    in
    let sec = List.hd (Midend.Lower.lower_module m) in
    List.iter (fun f -> ignore (Midend.Opt.optimize ~level f)) sec.Midend.Ir.funcs;
    let compiled =
      List.map
        (fun f -> (Warp.Codegen.compile_function f).Warp.Codegen.mfunc)
        sec.Midend.Ir.funcs
    in
    let image = Warp.Link.link ~section:"s" ~cells:1 compiled in
    let _, cycles =
      Warp.Cellsim.run ~fuel:50_000_000 image ~name:"k"
        ~args:[ Midend.Ir_interp.Vi 5; Midend.Ir_interp.Vi 1 ]
    in
    (Warp.Mcode.image_wide_count image, cycles)
  in
  let _, base_cycles = measure 0 in
  print_rows
    "Generated-code quality by optimization level (f_small kernel on the \
     cycle simulator)"
    (List.map
       (fun level ->
         let wides, cycles = measure level in
         [
           ("level", Json.Str (Printf.sprintf "-O%d" level));
           ("wide instrs", Json.Int wides);
           ("cycles", Json.Int cycles);
           ( "cycles vs -O0",
             fixed (float_of_int cycles /. float_of_int base_cycles) );
         ])
       [ 0; 1; 2; 3 ])

(* --- headline summary --- *)

let print_summary () =
  let speedup_at size n = speedup (point_at size n) in
  let user9 =
    speedup
      (List.find
         (fun (p : Experiment.point) -> p.Experiment.n_functions = 9)
         (Experiment.user_program ()))
  in
  Printf.printf
    "Headline (abstract): 'a speedup ranging from 3 to 6 using not more than 9 \
     processors'\n";
  Printf.printf "  f_medium, 8 functions : %.2f\n" (speedup_at W2.Gen.Medium 8);
  Printf.printf "  f_large,  8 functions : %.2f\n" (speedup_at W2.Gen.Large 8);
  Printf.printf "  f_huge,   8 functions : %.2f\n" (speedup_at W2.Gen.Huge 8);
  Printf.printf "  user program, 9 procs : %.2f\n" user9;
  Printf.printf "  f_tiny is of no use   : %.2f (4 functions)\n\n"
    (speedup_at W2.Gen.Tiny 4)

(* [--out PATH] redirects the next writer; [None] keeps the default
   filename (which CI's regression gates key on). *)
let out_override : string option ref = ref None

(* A sweep target: its BENCH file's schema and name, the top-level
   fields written before the row arrays, and each array's key, console
   title and rows. *)
type sweep = {
  schema : string;
  file : string;
  header : Experiment.row;
  groups : (string * string * Experiment.row list Lazy.t) list;
}

let run_sweep s =
  let groups =
    List.map
      (fun (key, title, rows) ->
        let rows = Lazy.force rows in
        print_rows title rows;
        (key, rows))
      s.groups
  in
  let doc =
    Json.Obj
      ((("schema", Json.Str s.schema) :: s.header)
      @ List.map
          (fun (key, rows) -> (key, Json.List (List.map (fun r -> Json.Obj r) rows)))
          groups)
  in
  let path = Option.value !out_override ~default:s.file in
  Out_channel.with_open_text path (fun oc ->
      output_string oc (Json.to_string doc));
  Printf.printf "wrote %s (%s)\n\n" path
    (String.concat ", "
       (List.map
          (fun (key, rows) -> Printf.sprintf "%d %s" (List.length rows) key)
          groups))

let fault_rows = lazy (Experiment.fault_sweep ())

let fault_title =
  "Fault sweep: S_8 f_medium under seeded crash/reclaim/slowdown plans \
   (inflation = elapsed / fault-free elapsed on the same pool)"

(* --- traced demo run: Chrome trace, Gantt timeline, metrics --- *)

let print_trace_demo () =
  let mw = Experiment.s_program_work ~size:W2.Gen.Small ~count:8 () in
  let plan = Plan.one_per_station mw in
  let n_fm = Plan.task_count plan in
  let tr = Trace.create () in
  let cfg =
    {
      Config.default with
      Config.stations = n_fm + 1;
      noise_seed = 1 + (17 * n_fm);
      trace = tr;
    }
  in
  let seq = Seqrun.run { cfg with Config.stations = 1; trace = Trace.none } mw in
  let par = (Parrun.run cfg mw plan).Parrun.run in
  let path = "warpcc_trace.json" in
  let oc = open_out path in
  output_string oc (Trace.to_chrome_json tr);
  close_out oc;
  Printf.printf "wrote %s (%d spans, %d instants, %d tracks)\n\n" path
    (Trace.span_count tr) (Trace.instant_count tr)
    (List.length (Trace.used_tracks tr));
  Stats.Table.print (Trace.gantt tr);
  print_newline ();
  Stats.Table.print (Metrics.to_table (Metrics.of_trace tr));
  print_newline ();
  Stats.Table.print
    (Timings.comparison_table (Timings.compare_runs ~processors:n_fm ~seq ~par));
  Printf.printf "parallel elapsed %.1f s, speedup %.2f\n\n" par.Timings.elapsed
    (seq.Timings.elapsed /. par.Timings.elapsed)

(* --- main --- *)

let all_figures () =
  List.iter print_figure figures;
  print_saturation ();
  print_summary ()

type action = Run of (unit -> unit) | Sweep of sweep

(* The bench-registration table: one row per target — name, the
   one-line doc `--help` prints, whether `all` (the default) includes
   it, and the action: a printer, or a sweep whose row groups are
   printed and written to its BENCH file.  Adding a sweep means adding
   one row here; dispatch, the help listing and the `all` sequence all
   derive from the table, so they cannot drift apart. *)
let targets : (string * string * bool * action) list =
  let batch_threshold =
    ("batch_threshold", Json.Fixed (1, Sched.batch_threshold))
  in
  let points title sweep = [ ("points", title, lazy (sweep ())) ] in
  ( "figures",
    "figures 3-16, the saturation sweep and the headline summary",
    true,
    Run all_figures )
  :: List.map
       (fun ((n, (doc, _, _)) as fig) ->
         (Printf.sprintf "fig%d" n, doc, false, Run (fun () -> print_figure fig)))
       figures
  @ [
    ("saturation", "section 4.2.2 processor-saturation sweep", false,
     Run print_saturation);
    ("summary", "the abstract's headline numbers", false, Run print_summary);
    ("scaling", "section-6 scaling limit, capped and uncapped pools", true,
     Run print_scaling);
    ("codegen", "generated-code quality by optimization level", true,
     Run print_codegen_ablation);
    ("makestudy", "section-3.4 parallel-make coexistence study", true,
     Run print_make_study);
    ("grain", "finer-grain (phase-pipelined) study", true, Run print_grain_study);
    ("inlining", "section-5.1 inlining as grain coarsening", true,
     Run print_inlining_study);
    ("ablations", "DESIGN.md section-5 ablations", true, Run print_ablations);
    ("faults", "seeded fault/recovery sweep (docs/FAULTS.md)", true,
     Run (fun () -> print_rows fault_title (Lazy.force fault_rows)));
    ( "sched",
      "scheduling-policy sweep + BENCH_sched.json",
      true,
      Sweep
        {
          schema = "warpcc-bench-sched/1";
          file = "BENCH_sched.json";
          header = [ batch_threshold ];
          groups =
            points
              "Scheduling policies on oversubscribed pools (speedup = FCFS \
               elapsed / policy elapsed on the same point)"
              Experiment.sched_sweep;
        } );
    ( "deps",
      "dependence-aware dispatch sweep + BENCH_deps.json",
      true,
      Sweep
        {
          schema = "warpcc-bench-deps/1";
          file = "BENCH_deps.json";
          header = [ batch_threshold ];
          groups =
            points
              "Dependence-aware dispatch (licensed = fraction of same-section \
               function pairs the analyzer lets overlap)"
              Experiment.dag_sweep;
        } );
    ( "absint",
      "abstract-interpretation pruning sweep + BENCH_absint.json",
      true,
      Sweep
        {
          schema = "warpcc-bench-absint/1";
          file = "BENCH_absint.json";
          header = [ ("pool", Json.Int Experiment.absint_pool) ];
          groups =
            points
              "Abstract-interpretation refinement (base analysis vs pruned; \
               elapsed under dag+lpt; races always 0)"
              Experiment.absint_sweep;
        } );
    ( "spec",
      "speculative-dispatch sweep + BENCH_spec.json",
      true,
      Sweep
        {
          schema = "warpcc-bench-spec/1";
          file = "BENCH_spec.json";
          header =
            [ ("spec_budget", Json.Int Config.default.Config.spec_budget) ];
          groups =
            points
              "Speculative dispatch (speedup = dag+lpt elapsed / dag+spec \
               elapsed; races always 0)"
              Experiment.spec_sweep;
        } );
    ( "profile",
      "critical-path attribution sweep + BENCH_profile.json",
      true,
      Sweep
        {
          schema = "warpcc-bench-profile/1";
          file = "BENCH_profile.json";
          header = [];
          groups =
            points
              "Critical-path attribution (buckets fold to elapsed exactly; \
               dominant = largest bucket)"
              Experiment.profile_sweep;
        } );
    ( "cache",
      "compile-cache cold/warm/one-edit sweep + BENCH_cache.json",
      true,
      Sweep
        {
          schema = "warpcc-bench-cache/1";
          file = "BENCH_cache.json";
          header = [];
          groups =
            points
              "Compile cache (cold misses every lookup, warm hits every \
               lookup, one edit recompiles exactly its closure)"
              Experiment.cache_sweep;
        } );
    ( "link",
      "cross-module composition + project scheduling + BENCH_link.json",
      true,
      Sweep
        {
          schema = "warpcc-bench-link/2";
          file = "BENCH_link.json";
          header = [];
          groups =
            [
              ( "compose",
                "Link-time composition from interface summaries",
                lazy (Experiment.link_compose_sweep ()) );
              ( "sched",
                "Project scheduling on the composed DAG (speedup = FCFS \
                 elapsed / policy elapsed)",
                lazy (Experiment.link_sched_sweep ()) );
            ];
        } );
    ( "json",
      "machine-readable BENCH_parallel.json",
      true,
      Sweep
        {
          schema = "warpcc-bench-parallel/1";
          file = "BENCH_parallel.json";
          header = [];
          groups =
            [
              ( "speedup",
                "Speedup over the sequential compiler, every size",
                lazy
                  (List.concat_map
                     (fun size ->
                       List.map (Experiment.speedup_row size) (size_points size))
                     W2.Gen.all_sizes) );
              ("fault_sweep", fault_title, fault_rows);
            ];
        } );
    ("trace", "traced parallel run: warpcc_trace.json + Gantt", false,
     Run print_trace_demo);
  ]

let print_help () =
  print_endline "usage: main.exe [TARGET...] [--out PATH]";
  print_newline ();
  print_endline "targets (* = part of `all`, the no-argument default):";
  List.iter
    (fun (name, doc, in_all, _) ->
      Printf.printf "  %c %-10s %s\n" (if in_all then '*' else ' ') name doc)
    targets;
  print_endline "  * all        every target marked *, in table order";
  print_newline ();
  print_endline
    "--out PATH redirects the JSON writer of a single-target invocation;";
  print_endline
    "without it every writer keeps its default BENCH_*.json filename,";
  print_endline "which the CI regression gates depend on."

let () =
  (* Split off [--out PATH] (redirects the JSON writers), leaving the
     target names. *)
  let rec split_args acc = function
    | [] -> List.rev acc
    | "--out" :: path :: rest ->
      out_override := Some path;
      split_args acc rest
    | [ "--out" ] ->
      prerr_endline "--out requires a path";
      exit 2
    | a :: rest -> split_args (a :: acc) rest
  in
  let args = split_args [] (List.tl (Array.to_list Sys.argv)) in
  let run name =
    let act = function Run f -> f () | Sweep s -> run_sweep s in
    match List.find_opt (fun (n, _, _, _) -> n = name) targets with
    | Some (_, _, _, a) -> act a
    | None -> (
      match name with
      | "all" ->
        List.iter (fun (_, _, in_all, a) -> if in_all then act a) targets
      | "--help" | "-h" | "help" -> print_help ()
      | other ->
        Printf.eprintf "unknown target %S (try --help)\n" other;
        exit 2)
  in
  match args with [] -> run "all" | args -> List.iter run args
