(* Parallel versus sequential compilation on the simulated 1989 host:
   a compact version of the paper's figures 3-6, for one size.

     dune exec examples/parallel_compile.exe
*)

open Parallel_cc

let () =
  Printf.printf
    "Compiling S_n programs (n copies of f_medium, %d lines each) on the\n\
     simulated Ethernet of diskless workstations...\n\n"
    (W2.Gen.size_lines W2.Gen.Medium);
  let table =
    Stats.Table.make ~title:"f_medium: sequential vs parallel compilation"
      ~columns:
        [
          "functions";
          "seq elapsed (min)";
          "par elapsed (min)";
          "speedup";
          "total ov %";
          "sys ov %";
        ]
  in
  let table =
    List.fold_left
      (fun table n ->
        let mw = Experiment.s_program_work ~size:W2.Gen.Medium ~count:n () in
        let c = Experiment.measure mw in
        Stats.Table.add_row table
          (string_of_int n
          :: List.map (Printf.sprintf "%.2f")
               [
                 c.Timings.seq.Timings.elapsed /. 60.0;
                 c.Timings.par.Timings.elapsed /. 60.0;
                 c.Timings.speedup;
                 c.Timings.rel_total_overhead;
                 c.Timings.rel_sys_overhead;
               ]))
      table [ 1; 2; 4; 8 ]
  in
  Stats.Table.print table;
  print_newline ();
  print_endline
    "Note the negative system overhead at n=1: the sequential Lisp compiler";
  print_endline
    "pays more for GC than the parallel compiler's processes, which each work";
  print_endline "on a smaller subproblem (the paper's figure 9).";
  print_newline ();
  (* Show where function masters landed. *)
  let mw = Experiment.s_program_work ~size:W2.Gen.Medium ~count:4 () in
  let plan = Plan.one_per_station mw in
  let outcome = Parrun.run { Config.default with Config.stations = 5 } mw plan in
  print_endline "placements (function master -> workstation):";
  List.iter
    (fun (name, station) -> Printf.printf "  %-12s -> ws%d\n" name station)
    outcome.Parrun.station_of_task
