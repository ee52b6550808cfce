(* The sequential compiler on the simulated host: one workstation, one
   Common-Lisp process doing all four phases in order.

   Its Lisp heap holds the whole module — the parsed program, everything
   retained from already-compiled functions, and the live data of the
   function at hand — so memory pressure grows as compilation proceeds
   (this is the swapping/GC behaviour the paper blames for the
   sequential compiler's own system overhead).

   [compile_process] is the spawnable body, reused by the parallel-make
   study where several sequential compilations share one host.  It
   has no recovery protocol, so it only runs on fault-free stations. *)

let never _ _ = false

(* One sequential compilation of [mw]: claims a workstation, runs the
   four phases, releases the station and reports its completion time.
   The counted events go to the host's log, traced on the station's
   track. *)
let compile_process (h : Lisp.host) (mw : Driver.Compile.module_work)
    ~on_finish () =
  let cost = h.cfg.Config.cost in
  let task = mw.Driver.Compile.mw_name in
  let ws = Lisp.claim h ~rank:None ~task ~attempt:1 in
  let span = Lisp.span h ws ~task ~attempt:1 in
  let record ev =
    Timings.record h.log h.cfg.Config.trace ~track:ws.Netsim.Host.ws_id
      ~now:(Netsim.Des.now h.sim) ~task ev
  in
  let compute ~tag seconds = ignore (Lisp.compute h ws ~tag seconds) in
  Lisp.start h ~held:never ~task ~attempt:1 ws;
  (* Read the source, then phase 1 over the whole module. *)
  let t_parse = Netsim.Des.now h.sim in
  Lisp.fetch h ~held:never ws ~file:("src:" ^ task)
    (Driver.Cost.source_bytes cost mw.Driver.Compile.mw_loc);
  let ast_mb =
    cost.Driver.Cost.ast_mb_per_loc *. float_of_int mw.Driver.Compile.mw_loc
  in
  Lisp.set_resident ws (cost.Driver.Cost.lisp_core_mb +. ast_mb);
  compute ~tag:"phase1" (Driver.Cost.phase1_seconds cost mw);
  span ~name:"parse" ~t0:t_parse;
  (* Phases 2+3, function after function; the heap never shrinks.  It
     retains the function's data whether it was recompiled or its
     artifact fetched, so residency grows identically on both paths —
     only the compute is skipped. *)
  let t_p23 = Netsim.Des.now h.sim in
  let compiled_loc = ref 0 in
  List.iter
    (fun (fw : Driver.Compile.func_work) ->
      Lisp.set_resident ws
        (Driver.Cost.sequential_mb cost mw ~compiled_loc:!compiled_loc
           ~current_loc:fw.Driver.Compile.fw_loc);
      if not (Lisp.lookup h ~record mw ws fw) then
        compute ~tag:"phase23" (Driver.Cost.phase23_seconds cost fw);
      compiled_loc := !compiled_loc + fw.Driver.Compile.fw_loc)
    (Driver.Compile.all_funcs mw);
  span ~name:"phase23" ~t0:t_p23;
  (* Phase 4: assembly, linking, drivers; then write the outputs, all
     durable at once, so this is where newly computed artifacts enter
     the compile cache. *)
  Lisp.set_resident ws
    (Driver.Cost.sequential_mb cost mw ~compiled_loc:!compiled_loc
       ~current_loc:0);
  compute ~tag:"phase4" (Driver.Cost.phase4_seconds cost mw);
  let t_wb = Netsim.Des.now h.sim in
  Lisp.write_back h ~record mw (Driver.Compile.all_funcs mw)
    (float_of_int (Driver.Compile.total_image_bytes mw));
  span ~name:"write-back" ~t0:t_wb;
  Lisp.release h ws;
  on_finish (Netsim.Des.now h.sim)

let run (cfg : Config.t) (mw : Driver.Compile.module_work) : Timings.run =
  let run, _ =
    Lisp.simulate cfg (fun h ~on_finish -> [ compile_process h mw ~on_finish ])
  in
  { run with Timings.dispatch_units = 1 }
