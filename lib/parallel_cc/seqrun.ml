(* The sequential compiler on the simulated host: one workstation, one
   Common-Lisp process doing all four phases in order.

   Its Lisp heap holds the whole module — the parsed program, everything
   retained from already-compiled functions, and the live data of the
   function at hand — so memory pressure grows as compilation proceeds
   (this is the swapping/GC behaviour the paper blames for the
   sequential compiler's own system overhead).

   [compile_process] is the spawnable body, reused by the parallel-make
   study where several sequential compilations share the cluster. *)

let set_resident ws mb =
  Netsim.Host.remove_resident ws ws.Netsim.Host.resident_mb;
  Netsim.Host.add_resident ws mb

(* One sequential compilation of [mw]: claims a workstation, runs the
   four phases, releases the station and reports its completion time.
   The counted events go to [log]. *)
let compile_process (cfg : Config.t) sim (cluster : Netsim.Host.cluster)
    ~noise (mw : Driver.Compile.module_work) ~log ~on_finish () =
  let cost = cfg.Config.cost in
  let tr = cfg.Config.trace in
  (* The compile cache memoizes whole-function artifacts, which the
     sequential compiler produces too — one Lisp recompiling a module
     it compiled before skips the unchanged functions' phase 2+3 just
     like the parallel one.  Disabled at fine grain for symmetry with
     [Parrun], so a seq/par comparison is never half-cached. *)
  let cache =
    match cfg.Config.cache with
    | Some c when not cfg.Config.fine_grained -> Some c
    | _ -> None
  in
  let t_claim = Netsim.Des.now sim in
  let ws = Netsim.Host.claim sim cluster in
  let lspan ~name ~t0 =
    if Trace.enabled tr then
      Trace.span tr ~track:ws.Netsim.Host.ws_id ~cat:"task" ~name
        ~args:[ ("task", mw.Driver.Compile.mw_name); ("attempt", "1") ]
        ~t0 ~t1:(Netsim.Des.now sim) ()
  in
  lspan ~name:"claim" ~t0:t_claim;
  (* Counted events go to the run log, traced on this station's
     track. *)
  let record ev =
    Timings.record log tr ~track:ws.Netsim.Host.ws_id ~now:(Netsim.Des.now sim)
      ~task:mw.Driver.Compile.mw_name ev
  in
  let factor w = Config.cluster_slowdown cfg cluster w in
  (* The sequential compiler has no recovery protocol: it is only run
     on fault-free stations (fault plans are a Parrun concern). *)
  let compute ?tag seconds =
    match
      Netsim.Host.compute sim ws ~factor ?tag
        ~seconds:(seconds *. noise ())
    with
    | Netsim.Fault.Completed -> ()
    | Netsim.Fault.Station_failed f ->
      failwith
        (Printf.sprintf "Seqrun: workstation %d failed at %.1fs"
           f.Netsim.Fault.failed_station f.Netsim.Fault.failed_at)
  in
  (* Lisp startup: core image download plus initialization. *)
  (if cfg.Config.core_download then begin
     let t0 = Netsim.Des.now sim in
     Netsim.Net.fetch sim cluster.Netsim.Host.fs cluster.Netsim.Host.ether
       ~bytes:cost.Driver.Cost.lisp_core_bytes;
     lspan ~name:"transfer" ~t0
   end);
  set_resident ws cost.Driver.Cost.lisp_core_mb;
  compute ~tag:"lisp-init" cost.Driver.Cost.lisp_init_seconds;
  (* Read the source from the file server. *)
  let t_parse = Netsim.Des.now sim in
  Netsim.Net.fetch sim cluster.Netsim.Host.fs cluster.Netsim.Host.ether
    ~bytes:(Driver.Cost.source_bytes cost mw.Driver.Compile.mw_loc);
  (* Phase 1 over the whole module. *)
  let ast_mb =
    cost.Driver.Cost.ast_mb_per_loc *. float_of_int mw.Driver.Compile.mw_loc
  in
  set_resident ws (cost.Driver.Cost.lisp_core_mb +. ast_mb);
  compute ~tag:"phase1" (Driver.Cost.phase1_seconds cost mw);
  lspan ~name:"parse" ~t0:t_parse;
  (* Phases 2+3, function after function; the heap never shrinks. *)
  let t_p23 = Netsim.Des.now sim in
  let compiled_loc = ref 0 in
  List.iter
    (fun (sw : Driver.Compile.section_work) ->
      List.iter
        (fun (fw : Driver.Compile.func_work) ->
          (* The heap retains the function's data whether it was
             recompiled or its artifact fetched, so residency grows
             identically on both paths — only the compute is skipped. *)
          set_resident ws
            (Driver.Cost.sequential_mb cost mw ~compiled_loc:!compiled_loc
               ~current_loc:fw.Driver.Compile.fw_loc);
          let hit =
            match (cache, fw.Driver.Compile.fw_key) with
            | Some c, Some key -> (
              let func = fw.Driver.Compile.fw_name in
              let owner = Cache.owner ~modul:mw.Driver.Compile.mw_name fw in
              match Cache.find c ~owner ~key with
              | Cache.Hit e ->
                record (Cache_hit { func; key });
                Netsim.Net.fetch ~client:ws.Netsim.Host.ws_id
                  ~file:("art:" ^ key) sim cluster.Netsim.Host.fs
                  cluster.Netsim.Host.ether
                  ~bytes:(Cache.meta_bytes +. e.Cache.e_bytes);
                true
              | Cache.Miss { stale } ->
                record (Cache_miss { func; key; invalidated = stale });
                false)
            | _ -> false
          in
          if not hit then
            compute ~tag:"phase23"
              (Driver.Cost.phase23_seconds cost fw);
          compiled_loc := !compiled_loc + fw.Driver.Compile.fw_loc)
        sw.Driver.Compile.sw_funcs)
    mw.Driver.Compile.mw_sections;
  lspan ~name:"phase23" ~t0:t_p23;
  (* Phase 4: assembly, linking, drivers; then write the outputs. *)
  set_resident ws
    (Driver.Cost.sequential_mb cost mw ~compiled_loc:!compiled_loc ~current_loc:0);
  compute ~tag:"phase4" (Driver.Cost.phase4_seconds cost mw);
  let t_wb = Netsim.Des.now sim in
  Netsim.Net.store sim cluster.Netsim.Host.fs cluster.Netsim.Host.ether
    ~bytes:(float_of_int (Driver.Compile.total_image_bytes mw));
  (* Durable publication: the sequential compiler's outputs all become
     durable here, so this is where newly computed artifacts enter the
     compile cache (already-durable keys are skipped and free). *)
  Option.iter
    (fun c ->
      Cache.publish c ~modul:mw.Driver.Compile.mw_name ~record
        ~store:(fun bytes ->
          Netsim.Net.store sim cluster.Netsim.Host.fs cluster.Netsim.Host.ether
            ~bytes)
        (Driver.Compile.all_funcs mw))
    cache;
  lspan ~name:"write-back" ~t0:t_wb;
  set_resident ws 0.0;
  Netsim.Host.release_station sim cluster ws;
  on_finish (Netsim.Des.now sim)

let run (cfg : Config.t) (mw : Driver.Compile.module_work) : Timings.run =
  let sim = Netsim.Des.create () in
  let cluster = Config.cluster cfg in
  let noise = Config.noise cfg in
  let finish = ref 0.0 in
  let log = Timings.empty_log () in
  Netsim.Des.spawn sim
    (compile_process cfg sim cluster ~noise mw ~log
       ~on_finish:(fun t -> finish := t));
  ignore (Netsim.Des.run sim);
  fst
    (Timings.tally log
       {
         Timings.zero with
         elapsed = !finish;
         cpu_per_station = Netsim.Host.cpu_times cluster;
         stations_used = 1;
         dispatch_units = 1;
       })
