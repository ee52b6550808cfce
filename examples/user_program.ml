(* The mechanical-engineering application of section 4.3: three section
   programs with three functions each — one of ~300 lines (about 20
   simulated minutes of sequential compilation) and two small ones.

   Compiled on 2, 3, 5 and 9 processors with the paper's load-balancing
   heuristic (estimate by lines of code and structure, pack longest
   first).

     dune exec examples/user_program.exe
*)

open Parallel_cc

let () =
  let mw = Experiment.user_program_work () in
  Printf.printf "user program: %d lines, %d functions in %d sections\n\n"
    mw.Driver.Compile.mw_loc
    (List.length (Driver.Compile.all_funcs mw))
    (List.length mw.Driver.Compile.mw_sections);
  List.iter
    (fun (fw : Driver.Compile.func_work) ->
      Printf.printf "  %-10s %-8s %3d lines  (~%4.1f min sequential)\n"
        fw.Driver.Compile.fw_name fw.Driver.Compile.fw_section
        fw.Driver.Compile.fw_loc
        (Driver.Cost.phase23_seconds Driver.Cost.default fw /. 60.0))
    (Driver.Compile.all_funcs mw);
  print_newline ();

  (* The grouping the heuristic chooses for five processors. *)
  let plan = Plan.grouped mw ~processors:5 in
  print_endline "task grouping for 5 processors (LoC-based estimate, LPT):";
  List.iter
    (fun (section, tasks) ->
      List.iter
        (fun (t : Plan.task) ->
          Printf.printf "  %-8s [%s] (%d lines)\n" section
            (String.concat ", "
               (List.map (fun fw -> fw.Driver.Compile.fw_name) t.Plan.t_funcs))
            (Plan.task_loc t))
        tasks)
    plan.Plan.tasks_per_section;
  print_newline ();

  let table =
    Stats.Table.make ~title:"Figure 11 reproduction: speedup vs processors"
      ~columns:[ "processors"; "seq (min)"; "par (min)"; "speedup" ]
  in
  let table =
    List.fold_left
      (fun table (p : Experiment.point) ->
        let c = p.Experiment.comparison in
        Stats.Table.add_row table
          (string_of_int p.Experiment.n_functions
          :: List.map (Printf.sprintf "%.2f")
               [
                 c.Timings.seq.Timings.elapsed /. 60.0;
                 c.Timings.par.Timings.elapsed /. 60.0;
                 c.Timings.speedup;
               ]))
      table (Experiment.user_program ())
  in
  Stats.Table.print table;
  print_newline ();
  print_endline
    "The 2-processor speedup approaches 2 despite the serial phases: the";
  print_endline
    "sequential compiler swaps on the whole module while each function master";
  print_endline
    "fits its subproblem in memory (the paper measured 2.16).  Five processors";
  print_endline "come close to nine: grouping the small functions wastes no stations."
