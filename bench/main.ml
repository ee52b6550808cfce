(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (section 4) on the simulated 1989 host, plus Bechamel
   micro-benchmarks of the real compiler phases.

   Usage:
     main.exe                 all figures, ablations, Bechamel benches
     main.exe fig3 ... fig16  individual figures
     main.exe saturation      section 4.2.2 processor-saturation sweep
     main.exe ablations       DESIGN.md section-5 ablations
     main.exe summary         the abstract's headline numbers
     main.exe faults          seeded fault/recovery sweep (docs/FAULTS.md)
     main.exe sched           scheduling-policy sweep + BENCH_sched.json
     main.exe deps            dependence-aware dispatch sweep + BENCH_deps.json
     main.exe absint          abstract-interpretation pruning sweep
                              + BENCH_absint.json
     main.exe spec            speculative-dispatch sweep + BENCH_spec.json
     main.exe profile         critical-path attribution sweep + BENCH_profile.json
     main.exe cache           compile-cache cold/warm/one-edit sweep
                              + BENCH_cache.json
     main.exe json            write machine-readable BENCH_parallel.json
     main.exe trace           traced parallel run: warpcc_trace.json + Gantt
     main.exe bechamel        only the micro-benchmarks
     main.exe --help          the full target table (see [targets] below)

   The flag --out PATH redirects the JSON writer of a single-target
   invocation (e.g. main.exe spec --out /tmp/spec.json); without it
   every writer keeps its default BENCH_*.json filename, which the CI
   regression gates depend on.
*)

open Parallel_cc

let t = Stats.Table.make

(* Experiment results are deterministic; compute one series per size. *)
let series_cache : (W2.Gen.size, Experiment.point list) Hashtbl.t = Hashtbl.create 5

let points_for size =
  match Hashtbl.find_opt series_cache size with
  | Some points -> points
  | None ->
    let points = Experiment.size_series size in
    Hashtbl.replace series_cache size points;
    points

let point_at size n =
  List.find (fun (p : Experiment.point) -> p.Experiment.n_functions = n) (points_for size)

let minutes x = x /. 60.0

(* --- figures 3, 4, 5, 12, 13: execution times --- *)

let print_time_series ~fig (size : W2.Gen.size) =
  let points = points_for size in
  let table =
    t
      ~title:
        (Printf.sprintf "Figure %s: execution times for %s (minutes)" fig
           (W2.Gen.size_name size))
      ~columns:
        [ "functions"; "elapsed seq"; "cpu seq"; "elapsed par"; "cpu par (max/proc)" ]
  in
  let table =
    List.fold_left
      (fun table (p : Experiment.point) ->
        let c = p.Experiment.comparison in
        Stats.Table.add_float_row table
          ~label:(string_of_int p.Experiment.n_functions)
          [
            minutes c.Timings.seq.Timings.elapsed;
            minutes (Timings.max_cpu c.Timings.seq);
            minutes c.Timings.par.Timings.elapsed;
            minutes (Timings.max_cpu c.Timings.par);
          ])
      table points
  in
  Stats.Table.print table;
  print_newline ()

(* --- figure 6: speedup over the sequential compiler --- *)

let print_fig6 () =
  let table =
    t ~title:"Figure 6: speedup over sequential compiler"
      ~columns:("functions" :: List.map W2.Gen.size_name W2.Gen.all_sizes)
  in
  let table =
    List.fold_left
      (fun table n ->
        let row =
          List.map
            (fun size -> (point_at size n).Experiment.comparison.Timings.speedup)
            W2.Gen.all_sizes
        in
        Stats.Table.add_float_row table ~label:(string_of_int n) row)
      table Experiment.function_counts
  in
  Stats.Table.print table;
  print_newline ()

(* --- figure 7: speedup versus function size --- *)

let print_fig7 () =
  let table =
    t ~title:"Figure 7: speedup versus function size (lines of code)"
      ~columns:
        ("lines"
        :: List.map (fun n -> Printf.sprintf "%d function(s)" n) Experiment.function_counts)
  in
  let table =
    List.fold_left
      (fun table size ->
        let row =
          List.map
            (fun n -> (point_at size n).Experiment.comparison.Timings.speedup)
            Experiment.function_counts
        in
        Stats.Table.add_float_row table
          ~label:(string_of_int (W2.Gen.size_lines size))
          row)
      table W2.Gen.all_sizes
  in
  Stats.Table.print table;
  print_newline ()

(* --- figures 8-10: relative overheads; 14-16: absolute overheads --- *)

let overhead_columns sizes kind =
  "functions"
  :: List.concat_map
       (fun size ->
         [
           Printf.sprintf "%s total%s" (W2.Gen.size_name size) kind;
           Printf.sprintf "%s system%s" (W2.Gen.size_name size) kind;
         ])
       sizes

let print_overheads ~fig ~relative sizes =
  let kind = if relative then " %" else " (s)" in
  let what = if relative then "percentage of parallel elapsed time" else "seconds" in
  let table =
    t
      ~title:
        (Printf.sprintf "Figure %s: %s overhead (%s)" fig
           (if relative then "relative" else "absolute")
           what)
      ~columns:(overhead_columns sizes kind)
  in
  let table =
    List.fold_left
      (fun table n ->
        let row =
          List.concat_map
            (fun size ->
              let c = (point_at size n).Experiment.comparison in
              if relative then [ c.Timings.rel_total_overhead; c.Timings.rel_sys_overhead ]
              else [ c.Timings.total_overhead; c.Timings.sys_overhead ])
            sizes
        in
        Stats.Table.add_float_row table ~label:(string_of_int n) row)
      table Experiment.function_counts
  in
  Stats.Table.print table;
  print_newline ()

(* --- figure 11: the user program --- *)

let print_fig11 () =
  let points = Experiment.user_program () in
  let table =
    t
      ~title:
        "Figure 11: speedup for a user program (3 sections x 3 functions, \
         grouped by the load-balancing heuristic)"
      ~columns:[ "processors"; "elapsed seq (min)"; "elapsed par (min)"; "speedup" ]
  in
  let table =
    List.fold_left
      (fun table (p : Experiment.point) ->
        let c = p.Experiment.comparison in
        Stats.Table.add_float_row table
          ~label:(string_of_int p.Experiment.n_functions)
          [
            minutes c.Timings.seq.Timings.elapsed;
            minutes c.Timings.par.Timings.elapsed;
            c.Timings.speedup;
          ])
      table points
  in
  Stats.Table.print table;
  print_newline ()

(* --- section 4.2.2: saturation --- *)

let print_saturation () =
  let points = Experiment.saturation () in
  let table =
    t
      ~title:
        "Saturation (cf. section 4.2.2): elapsed time of S_8 f_medium versus \
         workstation pool size"
      ~columns:[ "stations"; "elapsed par (min)" ]
  in
  let table =
    List.fold_left
      (fun table (stations, elapsed) ->
        Stats.Table.add_float_row table ~label:(string_of_int stations)
          [ minutes elapsed ])
      table points
  in
  Stats.Table.print table;
  print_newline ()

(* --- ablations --- *)

let print_ablations () =
  let table =
    t ~title:"Ablations (DESIGN.md section 5): what breaks each paper phenomenon"
      ~columns:
        [
          "configuration";
          "medium n=1 sys ov %";
          "tiny n=4 speedup";
          "huge n=8 rel ov %";
          "large n=8 speedup";
        ]
  in
  let table =
    List.fold_left
      (fun table (ab : Experiment.ablation) ->
        let cfg = ab.Experiment.ab_cfg in
        let med =
          Experiment.measure ~cfg (Experiment.s_program_work ~size:W2.Gen.Medium ~count:1 ())
        in
        let tiny =
          Experiment.measure ~cfg (Experiment.s_program_work ~size:W2.Gen.Tiny ~count:4 ())
        in
        let huge =
          Experiment.measure ~cfg (Experiment.s_program_work ~size:W2.Gen.Huge ~count:8 ())
        in
        let large =
          Experiment.measure ~cfg (Experiment.s_program_work ~size:W2.Gen.Large ~count:8 ())
        in
        Stats.Table.add_float_row table ~label:ab.Experiment.ab_name
          [
            med.Timings.rel_sys_overhead;
            tiny.Timings.speedup;
            huge.Timings.rel_total_overhead;
            large.Timings.speedup;
          ])
      table Experiment.ablations
  in
  Stats.Table.print table;
  print_newline ();
  (* Grouping ablation: the section-4.3 heuristic versus one function
     per processor on the user program. *)
  let mw = Experiment.user_program_work () in
  let grouped5 = Experiment.measure ~processors:5 mw in
  let one_per = Experiment.measure mw in
  let table2 = t ~title:"Ablation: load balancing on the user program"
      ~columns:[ "policy"; "processors"; "speedup" ] in
  let table2 =
    Stats.Table.add_float_row table2 ~label:"one function per processor"
      [ float_of_int one_per.Timings.processors; one_per.Timings.speedup ]
  in
  let table2 =
    Stats.Table.add_float_row table2 ~label:"grouped (LoC x nesting, LPT)"
      [ float_of_int grouped5.Timings.processors; grouped5.Timings.speedup ]
  in
  Stats.Table.print table2;
  print_newline ()

(* --- section 3.4: parallel make coexistence --- *)

let print_make_study () =
  let results = Experiment.run_make_study () in
  let table =
    t
      ~title:
        "Build strategies for a 4-module system (cf. section 3.4: 'both          approaches could coexist')"
      ~columns:[ "strategy"; "elapsed (min)" ]
  in
  let table =
    List.fold_left
      (fun table (r : Makerun.result) ->
        Stats.Table.add_float_row table
          ~label:(Makerun.strategy_name r.Makerun.strategy)
          [ minutes r.Makerun.elapsed ])
      table results
  in
  Stats.Table.print table;
  print_newline ()

(* --- section 5: finer-grain parallelism --- *)

let print_grain_study () =
  let points = Experiment.run_grain_study () in
  let table =
    t
      ~title:
        "Finer grain (phase-pipelined) vs the paper's coarse grain, S_8          f_medium (cf. section 5: 'further advances have to explore finer          grain parallelism')"
      ~columns:[ "stations"; "coarse (min)"; "fine (min)" ]
  in
  let table =
    List.fold_left
      (fun table (g : Experiment.grain_point) ->
        Stats.Table.add_float_row table
          ~label:(string_of_int g.Experiment.gp_stations)
          [ minutes g.Experiment.coarse; minutes g.Experiment.fine ])
      table points
  in
  Stats.Table.print table;
  print_endline
    "On this host the extra Lisp startup and IR shipping outweigh the";
  print_endline
    "stage pipelining — which is exactly why the authors chose functions";
  print_endline "as the grain (section 3.3).";
  print_newline ()

(* --- section 5.1: inlining --- *)

let print_inlining_study () =
  let study = Experiment.run_inlining_study () in
  let table =
    t ~title:"Inlining as grain coarsening (section 5.1)"
      ~columns:[ "variant"; "functions"; "seq (min)"; "par (min)"; "speedup" ]
  in
  let row name funcs (c : Timings.comparison) table =
    Stats.Table.add_float_row table ~label:name
      [
        float_of_int funcs;
        minutes c.Timings.seq.Timings.elapsed;
        minutes c.Timings.par.Timings.elapsed;
        c.Timings.speedup;
      ]
  in
  let table = row "as written" study.Experiment.baseline_functions study.Experiment.baseline table in
  let table = row "inlined + pruned" study.Experiment.inlined_functions study.Experiment.inlined table in
  Stats.Table.print table;
  print_newline ()

(* --- section 6: scaling limit --- *)

let print_scaling () =
  let unlimited = Experiment.run_scaling_study () in
  let capped = Experiment.run_scaling_study ~max_stations:15 () in
  let table =
    t
      ~title:
        "Scaling (section 6: '8 to 16 processors can be used comfortably'),          f_large"
      ~columns:
        [ "functions"; "speedup (pool = n)"; "efficiency"; "speedup (pool <= 15)" ]
  in
  let table =
    List.fold_left2
      (fun table (u : Experiment.point) (c : Experiment.point) ->
        let su = u.Experiment.comparison.Timings.speedup in
        Stats.Table.add_float_row table
          ~label:(string_of_int u.Experiment.n_functions)
          [
            su;
            su /. float_of_int u.Experiment.n_functions;
            c.Experiment.comparison.Timings.speedup;
          ])
      table unlimited capped
  in
  Stats.Table.print table;
  print_newline ()

(* --- sweeps: one table printer and one BENCH_*.json writer for every
   row list --- *)

let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let rec json_value = function
  | Experiment.Int n -> string_of_int n
  | Experiment.Fixed (decimals, x) -> Printf.sprintf "%.*f" decimals x
  | Experiment.Exact x -> Printf.sprintf "%.17g" x
  | Experiment.Str s -> Printf.sprintf "\"%s\"" (json_escape s)
  | Experiment.Obj row -> Printf.sprintf "{%s}" (json_fields row)

and json_fields row =
  String.concat ", "
    (List.map
       (fun (k, v) -> Printf.sprintf "\"%s\": %s" (json_escape k) (json_value v))
       row)

(* One column per field; nested objects flatten to "key.field" columns
   over every row's fields, "-" where a row lacks one. *)
let print_rows title (rows : Experiment.row list) =
  let rec flat prefix row =
    List.concat_map
      (fun (k, v) ->
        match v with
        | Experiment.Obj sub -> flat (prefix ^ k ^ ".") sub
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
    | Some (Experiment.Exact x) -> Printf.sprintf "%.3f" x
    | Some (Experiment.Str s) -> s
    | Some v -> json_value v
    | None -> "-"
  in
  Stats.Table.print
    (List.fold_left
       (fun table row ->
         Stats.Table.add_row table
           (List.map (fun c -> cell (List.assoc_opt c row)) columns))
       (t ~title ~columns) rows);
  print_newline ()

(* [--out PATH] redirects the next writer; [None] keeps the default
   filename (which CI's regression gates key on). *)
let out_override : string option ref = ref None

let bpr b fmt = Printf.ksprintf (Buffer.add_string b) fmt

let json_array b ~key items row =
  bpr b ",\n  \"%s\": [\n" key;
  let first = ref true in
  List.iter
    (fun x ->
      if not !first then Buffer.add_string b ",\n";
      first := false;
      Buffer.add_string b "    ";
      row x)
    items;
  Buffer.add_string b "\n  ]"

let write_json ~schema ~default ~summary body =
  let b = Buffer.create 4096 in
  bpr b "{\n";
  bpr b "  \"schema\": \"%s\"" (json_escape schema);
  body b;
  bpr b "\n}\n";
  let path = Option.value !out_override ~default in
  let oc = open_out path in
  output_string oc (Buffer.contents b);
  close_out oc;
  Printf.printf "wrote %s (%s)\n\n" path summary

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
  List.iter (fun (_, title, rows) -> print_rows title (Lazy.force rows)) s.groups;
  write_json ~schema:s.schema ~default:s.file
    ~summary:
      (String.concat ", "
         (List.map
            (fun (key, _, rows) ->
              Printf.sprintf "%d %s" (List.length (Lazy.force rows)) key)
            s.groups))
    (fun b ->
      List.iter (fun (k, v) -> bpr b ",\n  \"%s\": %s" k (json_value v)) s.header;
      List.iter
        (fun (key, _, rows) ->
          json_array b ~key (Lazy.force rows) (fun row ->
              bpr b "{%s}" (json_fields row)))
        s.groups)

let fault_rows = lazy (Experiment.fault_sweep ())

let fault_title =
  "Fault sweep: S_8 f_medium under seeded crash/reclaim/slowdown plans \
   (inflation = elapsed / fault-free elapsed on the same pool)"

(* --- code quality: what the optimizer levels buy on the machine --- *)

let print_codegen_ablation () =
  let table =
    t
      ~title:
        "Generated-code quality by optimization level (f_small kernel on the cycle simulator)"
      ~columns:[ "level"; "wide instrs"; "cycles"; "cycles vs -O0" ]
  in
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
  let table =
    List.fold_left
      (fun table level ->
        let wides, cycles = measure level in
        Stats.Table.add_float_row table
          ~label:(Printf.sprintf "-O%d" level)
          [
            float_of_int wides;
            float_of_int cycles;
            float_of_int cycles /. float_of_int base_cycles;
          ])
      table [ 0; 1; 2; 3 ]
  in
  Stats.Table.print table;
  print_newline ()

(* --- headline summary --- *)

let print_summary () =
  let speedup_at size n = (point_at size n).Experiment.comparison.Timings.speedup in
  let user = Experiment.user_program () in
  let user9 =
    (List.find (fun (p : Experiment.point) -> p.Experiment.n_functions = 9) user)
      .Experiment.comparison.Timings.speedup
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

(* --- Bechamel micro-benchmarks of the real compiler --- *)

let bechamel_tests () =
  let open Bechamel in
  let source size =
    W2.Pretty.module_to_string
      (W2.Gen.module_of_function (W2.Gen.sized_function ~name:"bench" size))
  in
  let medium_src = source W2.Gen.Medium in
  let small_src = source W2.Gen.Small in
  let parsed = W2.Parser.module_of_string medium_src in
  let lowered () = List.hd (Midend.Lower.lower_module parsed) in
  [
    (* one Test.make per table/figure driver *)
    Test.make ~name:"fig3-5+12-13 size-series cell (tiny,n=2)"
      (Staged.stage (fun () ->
           ignore
             (Experiment.measure (Experiment.s_program_work ~size:W2.Gen.Tiny ~count:2 ()))));
    Test.make ~name:"fig6-7 speedup cell (medium,n=2)"
      (Staged.stage (fun () ->
           ignore
             (Experiment.measure
                (Experiment.s_program_work ~size:W2.Gen.Medium ~count:2 ()))));
    Test.make ~name:"fig8-10+14-16 overhead cell (small,n=4)"
      (Staged.stage (fun () ->
           ignore
             (Experiment.measure (Experiment.s_program_work ~size:W2.Gen.Small ~count:4 ()))));
    Test.make ~name:"fig11 user program (5 procs)"
      (Staged.stage (fun () ->
           ignore (Experiment.measure ~processors:5 (Experiment.user_program_work ()))));
    (* real compiler phases *)
    Test.make ~name:"phase1 lex+parse+check (medium)"
      (Staged.stage (fun () ->
           let m = W2.Parser.module_of_string medium_src in
           ignore (W2.Semcheck.check_module m)));
    Test.make ~name:"phase2 lower+optimize (medium)"
      (Staged.stage (fun () ->
           let sec = lowered () in
           List.iter (fun f -> ignore (Midend.Opt.optimize f)) sec.Midend.Ir.funcs));
    Test.make ~name:"phase2+3+4 full compile (small)"
      (Staged.stage (fun () ->
           let mw = Driver.Compile.compile_source small_src in
           ignore (Driver.Compile.total_image_bytes mw)));
    Test.make ~name:"netsim seq+par runs (small,n=4)"
      (Staged.stage (fun () ->
           let mw = Experiment.s_program_work ~size:W2.Gen.Small ~count:4 () in
           let plan = Plan.one_per_station mw in
           ignore (Seqrun.run { Config.default with Config.stations = 1 } mw);
           ignore (Parrun.run { Config.default with Config.stations = 5 } mw plan)));
  ]

let print_bechamel () =
  let open Bechamel in
  let open Toolkit in
  print_endline "Bechamel micro-benchmarks (monotonic clock per run):";
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.8) ~kde:None () in
  let instances = Instance.[ monotonic_clock ] in
  let ols = Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |] in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let analyzed = Analyze.all ols Instance.monotonic_clock results in
      Hashtbl.iter
        (fun name ols_result ->
          let estimate =
            match Analyze.OLS.estimates ols_result with
            | Some (x :: _) -> x
            | Some [] | None -> nan
          in
          Printf.printf "  %-44s %12.3f ms/run\n%!" name (estimate /. 1e6))
        analyzed)
    (bechamel_tests ());
  print_newline ()

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
  print_time_series ~fig:"3" W2.Gen.Tiny;
  print_time_series ~fig:"4" W2.Gen.Large;
  print_time_series ~fig:"5" W2.Gen.Huge;
  print_fig6 ();
  print_fig7 ();
  print_overheads ~fig:"8" ~relative:true [ W2.Gen.Tiny; W2.Gen.Small ];
  print_overheads ~fig:"9" ~relative:true [ W2.Gen.Medium; W2.Gen.Large ];
  print_overheads ~fig:"10" ~relative:true [ W2.Gen.Huge ];
  print_fig11 ();
  print_time_series ~fig:"12" W2.Gen.Small;
  print_time_series ~fig:"13" W2.Gen.Medium;
  print_overheads ~fig:"14" ~relative:false [ W2.Gen.Tiny; W2.Gen.Small ];
  print_overheads ~fig:"15" ~relative:false [ W2.Gen.Medium; W2.Gen.Large ];
  print_overheads ~fig:"16" ~relative:false [ W2.Gen.Huge ];
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
  let fig n doc run = (Printf.sprintf "fig%d" n, doc, false, Run run) in
  let batch_threshold =
    ("batch_threshold", Experiment.Fixed (1, Config.default.Config.batch_threshold))
  in
  let points title sweep = [ ("points", title, lazy (sweep ())) ] in
  [
    ( "figures",
      "figures 3-16, the saturation sweep and the headline summary",
      true,
      Run all_figures );
    fig 3 "execution times, f_tiny" (fun () ->
        print_time_series ~fig:"3" W2.Gen.Tiny);
    fig 4 "execution times, f_large" (fun () ->
        print_time_series ~fig:"4" W2.Gen.Large);
    fig 5 "execution times, f_huge" (fun () ->
        print_time_series ~fig:"5" W2.Gen.Huge);
    fig 6 "speedup over the sequential compiler" print_fig6;
    fig 7 "speedup versus function size" print_fig7;
    fig 8 "relative overheads, f_tiny + f_small" (fun () ->
        print_overheads ~fig:"8" ~relative:true [ W2.Gen.Tiny; W2.Gen.Small ]);
    fig 9 "relative overheads, f_medium + f_large" (fun () ->
        print_overheads ~fig:"9" ~relative:true [ W2.Gen.Medium; W2.Gen.Large ]);
    fig 10 "relative overheads, f_huge" (fun () ->
        print_overheads ~fig:"10" ~relative:true [ W2.Gen.Huge ]);
    fig 11 "speedup for the user program" print_fig11;
    fig 12 "execution times, f_small" (fun () ->
        print_time_series ~fig:"12" W2.Gen.Small);
    fig 13 "execution times, f_medium" (fun () ->
        print_time_series ~fig:"13" W2.Gen.Medium);
    fig 14 "absolute overheads, f_tiny + f_small" (fun () ->
        print_overheads ~fig:"14" ~relative:false [ W2.Gen.Tiny; W2.Gen.Small ]);
    fig 15 "absolute overheads, f_medium + f_large" (fun () ->
        print_overheads ~fig:"15" ~relative:false
          [ W2.Gen.Medium; W2.Gen.Large ]);
    fig 16 "absolute overheads, f_huge" (fun () ->
        print_overheads ~fig:"16" ~relative:false [ W2.Gen.Huge ]);
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
          header = [ ("pool", Experiment.Int 4) ];
          groups =
            points
              "Abstract-interpretation refinement (base analysis vs pruned; \
               elapsed under dag+lpt; races always 0)"
              (fun () -> Experiment.absint_sweep ~pool:4 ());
        } );
    ( "spec",
      "speculative-dispatch sweep + BENCH_spec.json",
      true,
      Sweep
        {
          schema = "warpcc-bench-spec/1";
          file = "BENCH_spec.json";
          header =
            [ ("spec_budget", Experiment.Int Config.default.Config.spec_budget) ];
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
                       List.map (Experiment.speedup_row size) (points_for size))
                     W2.Gen.all_sizes) );
              ("fault_sweep", fault_title, fault_rows);
            ];
        } );
    ("trace", "traced parallel run: warpcc_trace.json + Gantt", false,
     Run print_trace_demo);
    ("bechamel", "Bechamel micro-benchmarks of the real compiler", true,
     Run print_bechamel);
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
