(* Parallel make versus the parallel compiler (section 3.4).

   "While in parallel make several modules are compiled concurrently
   with a sequential compiler, our system compiles a single module with
   a parallel compiler. ... In practice, both approaches could coexist,
   with the parallel compiler speeding up the individual translations,
   and the parallel make system organizing the system generation
   effort."

   Four strategies over a system of several modules, sharing one
   cluster:

     sequential      one workstation compiles the modules in order
     parallel make   one sequential compilation per module, all
                     concurrent (Baalbergen's [1])
     parallel cc     modules in order, each compiled by the parallel
                     compiler (this paper)
     combined        concurrent modules, each compiled in parallel *)

type strategy = Sequential | Parallel_make | Parallel_cc | Combined

let strategy_name = function
  | Sequential -> "sequential"
  | Parallel_make -> "parallel make"
  | Parallel_cc -> "parallel compiler"
  | Combined -> "make + parallel compiler"

type result = {
  strategy : strategy;
  elapsed : float;
  stations_used : int;
}

(* Run [modules] under [strategy] on a cluster of [stations].  Modules
   are treated as independent (an empty makefile dependency list — the
   favourable case for parallel make). *)
let run (cfg : Config.t) ~stations (modules : Driver.Compile.module_work list)
    (strategy : strategy) : result =
  let cfg = { cfg with Config.stations } in
  let run, _ =
    Lisp.simulate cfg (fun h ~on_finish ->
        (* One ["make"] span per module compilation on track 0, so a
           traced study shows the per-module schedule of each
           strategy. *)
        let traced (mw : Driver.Compile.module_work) body () =
          let tr = cfg.Config.trace in
          let t0 = Netsim.Des.now h.sim in
          body ();
          if Trace.enabled tr then
            Trace.span tr ~track:0 ~cat:"make"
              ~name:("module " ^ mw.Driver.Compile.mw_name)
              ~args:[ ("strategy", strategy_name strategy) ]
              ~t0 ~t1:(Netsim.Des.now h.sim) ()
        in
        let seq mw = traced mw (Seqrun.compile_process h mw ~on_finish) in
        let par mw =
          traced mw
            (Parrun.master_process h mw
               (Parrun.schedule cfg (Plan.one_per_station mw))
               ~on_finish)
        in
        (* One process compiles the modules back to back. *)
        let in_order body =
          [ (fun () -> List.iter (fun mw -> body mw ()) modules) ]
        in
        match strategy with
        | Sequential -> in_order seq
        | Parallel_make -> List.map seq modules
        | Parallel_cc -> in_order par
        | Combined -> List.map par modules)
  in
  {
    strategy;
    elapsed = run.Timings.elapsed;
    stations_used = run.Timings.stations_used;
  }

let run_all (cfg : Config.t) ~stations modules : result list =
  List.map
    (run cfg ~stations modules)
    [ Sequential; Parallel_make; Parallel_cc; Combined ]
