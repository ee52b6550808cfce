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
  let sim = Netsim.Des.create () in
  let cluster = Config.cluster cfg in
  let noise = Config.noise cfg in
  let finish = ref 0.0 in
  let done_count = ref 0 in
  let total = List.length modules in
  let on_finish t =
    incr done_count;
    if !done_count = total then finish := t
  in
  let log = Timings.empty_log () in
  (* One ["make"] span per module compilation on track 0, so a traced
     study shows the per-module schedule of each strategy. *)
  let traced (mw : Driver.Compile.module_work) body () =
    let tr = cfg.Config.trace in
    let t0 = Netsim.Des.now sim in
    body ();
    if Trace.enabled tr then
      Trace.span tr ~track:0 ~cat:"make"
        ~name:("module " ^ mw.Driver.Compile.mw_name)
        ~args:[ ("strategy", strategy_name strategy) ]
        ~t0 ~t1:(Netsim.Des.now sim) ()
  in
  let seq_body mw =
    traced mw (Seqrun.compile_process cfg sim cluster ~noise mw ~log ~on_finish)
  in
  let par_body mw =
    traced mw
      (Parrun.master_process cfg sim cluster ~noise mw
         (Parrun.schedule cfg (Plan.one_per_station mw))
         ~log ~on_finish)
  in
  (match strategy with
  | Sequential ->
    (* One process runs the modules back to back. *)
    Netsim.Des.spawn sim (fun () -> List.iter (fun mw -> seq_body mw ()) modules)
  | Parallel_make -> List.iter (fun mw -> Netsim.Des.spawn sim (seq_body mw)) modules
  | Parallel_cc ->
    Netsim.Des.spawn sim (fun () -> List.iter (fun mw -> par_body mw ()) modules)
  | Combined -> List.iter (fun mw -> Netsim.Des.spawn sim (par_body mw)) modules);
  ignore (Netsim.Des.run sim);
  {
    strategy;
    elapsed = !finish;
    stations_used = List.length (Netsim.Host.cpu_times cluster);
  }

let run_all (cfg : Config.t) ~stations modules : result list =
  List.map
    (run cfg ~stations modules)
    [ Sequential; Parallel_make; Parallel_cc; Combined ]
