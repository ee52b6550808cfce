(* Section 5.1: procedure inlining and parallel compilation.

   The paper observes that parallel compilation is of marginal value for
   small functions, and proposes inlining as the fix: it both improves
   the generated code and increases the grain of the parallel tasks.

   This example compiles a program of many small helper functions twice
   — as written, and after inlining the helpers into their callers — and
   compares the simulated parallel compilation.

     dune exec examples/inlining_study.exe
*)

open Parallel_cc

let () =
  let study = Experiment.run_inlining_study () in
  Printf.printf "program: %d functions; after inlining %d call sites: %d functions\n\n"
    study.Experiment.baseline_functions study.Experiment.calls_inlined
    study.Experiment.inlined_functions;
  let row name (c : Timings.comparison) table =
    Stats.Table.add_row table
      (name
      :: List.map (Printf.sprintf "%.2f")
           [
             float_of_int c.Timings.processors;
             c.Timings.seq.Timings.elapsed /. 60.0;
             c.Timings.par.Timings.elapsed /. 60.0;
             c.Timings.speedup;
             c.Timings.rel_total_overhead;
           ])
  in
  let table =
    Stats.Table.make ~title:"Inlining as grain coarsening"
      ~columns:[ "variant"; "processors"; "seq (min)"; "par (min)"; "speedup"; "overhead %" ]
    |> row "as written (small functions)" study.Experiment.baseline
    |> row "after inlining + pruning" study.Experiment.inlined
  in
  Stats.Table.print table;
  print_newline ();
  print_endline
    "Inlining duplicates work (the inlined program costs more to compile";
  print_endline
    "sequentially) yet the parallel compilation gets faster: fewer Lisp";
  print_endline
    "process startups, bigger tasks per function master — exactly the";
  print_endline "trade-off section 5.1 describes.";
  if
    study.Experiment.inlined.Timings.par.Timings.elapsed
    < study.Experiment.baseline.Timings.par.Timings.elapsed
  then print_endline "RESULT: inlining wins"
  else print_endline "RESULT: inlining did not pay off at this configuration"
