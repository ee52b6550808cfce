(* The parallel compiler on the simulated host (section 3.2).

   Process hierarchy:
     master        one C process + a Lisp process for phase 1 and the
                   setup parse; spawns the section masters; performs
                   phase 4 after they finish.
     section       one C process per section, running on the master's
     masters       workstation; start one function master per task,
                   drawing workstations from the pool FCFS; combine
                   results and diagnostics when their functions finish.
     function      one Lisp process per task on its own workstation:
     masters       core-image download, initialization, re-parse of its
                   share of the source, then phases 2+3 for each of its
                   functions, then output write-back.

   The only communication is parent<->child messages (modelled by join
   counters), as in the paper.  A function master and the sequential
   fallback are sequences of the same [Lisp] steps as the sequential
   compiler; what the parallel compiler adds (forks, re-parsing,
   combining, supervision) is its implementation overhead.  Scheduling,
   fine grain, supervision, speculation and the accounting are
   described in parrun.mli. *)

type outcome = {
  run : Timings.run;
  station_of_task : (string * int) list; (* task head function -> station *)
  scheduled : Plan.t; (* the plan the master dispatched *)
}

(* Supervision messages; attempt-numbered so a supervisor can ignore
   verdicts about attempts it has already given up on.  [Msg_lost]
   reports a crashed or timed-out attempt; [Msg_aborted] is the commit
   oracle's verdict on a speculative attempt: the staged output read
   stale state and was quarantined. *)
type sup_msg = Msg_completed | Msg_lost of int | Msg_aborted of int

(* Bytes of the version-pointer flip that commits a staged artifact
   (or quarantines an aborted one) on the file server: metadata only,
   the staged payload itself was already charged at staging time. *)
let spec_meta_bytes = 256.0

(* Apply the dispatch policy.  A pure plan-to-plan transformation:
   [Sched.Fcfs] (the default) returns the plan physically unchanged,
   so the event schedule is bit-identical to the unscheduled
   compiler. *)
let schedule (cfg : Config.t) (plan : Plan.t) : Plan.t =
  if
    Sched.gating cfg.Config.sched_policy = Sched.Proven
    && cfg.Config.spec_budget < 1
  then
    invalid_arg
      "Parrun: dag+spec needs spec_budget >= 1 (use dag+lpt for no \
       speculation)";
  Sched.schedule ~static:cfg.Config.static_cost
    ~policy:cfg.Config.sched_policy ~cost:cfg.Config.cost
    ~threshold:Sched.batch_threshold ~stations:cfg.Config.stations plan

(* The master process body; spawnable so that several modules can be
   compiled concurrently on one cluster (the parallel-make study).
   [plan] is the scheduled plan ({!schedule}), dispatched as given. *)
let master_process (cfg : Config.t) sim (cluster : Netsim.Host.cluster) ~noise
    (mw : Driver.Compile.module_work) (plan : Plan.t) ~(log : Timings.log)
    ~on_finish () =
  let cost = cfg.Config.cost in
  let gating = Sched.gating cfg.Config.sched_policy in
  (* Under a DAG policy each task gets a one-shot completion event;
     dependent tasks await their predecessors' events before claiming
     a station.  Everything is a no-op for edge-free sections (and for
     the non-DAG policies, whose dependence lists are empty): awaiting
     an already-set event never suspends and setting an event nobody
     awaits schedules nothing, so the event schedule is untouched.

     Under [Proven] gating only the proven edges gate; attempts
     dispatched past speculative edges stage their write-back and run
     the commit protocol below. *)
  let spec_mode = gating = Sched.Proven in
  let faulty = not (Netsim.Fault.is_none cfg.Config.faults) in
  let tr = cfg.Config.trace in
  let src_file = "src:" ^ mw.Driver.Compile.mw_name in
  let ws_m = Netsim.Host.claim sim cluster in
  (* The one place an event is counted and traced, on the master's
     track. *)
  let record ?task ?attempt ?t0 ev =
    Timings.record log tr ~track:ws_m.Netsim.Host.ws_id
      ~now:(Netsim.Des.now sim) ?task ?attempt ?t0 ev
  in
  let compute = Lisp.compute cfg sim cluster ~noise in
  (* The master's workstation is never faulted (Host wires station 0
     out of the plan), so its steps never raise [Lisp.Lost]. *)
  let compute_m ~tag seconds = ignore (compute ws_m ~tag seconds) in
  (* Implementation-overhead CPU on the master's workstation. *)
  let overhead_m kind ~tag seconds =
    record (Overhead (kind, compute ws_m ~tag seconds))
  in
  let fetch_m = Lisp.fetch sim cluster ~held:(fun _ _ -> false) ws_m in
  (* C master: cheap startup, then read the source. *)
  Netsim.Des.delay sim cost.Driver.Cost.c_process_seconds;
  fetch_m ~file:src_file (Driver.Cost.source_bytes cost mw.Driver.Compile.mw_loc);
  (* The master's Lisp process: phase 1 proper plus the extra
     structure-discovering parse (the latter is implementation
     overhead). *)
  (if cfg.Config.core_download then
     fetch_m ~file:Lisp.core_file cost.Driver.Cost.lisp_core_bytes);
  let ast_mb =
    cost.Driver.Cost.ast_mb_per_loc *. float_of_int mw.Driver.Compile.mw_loc
  in
  Lisp.set_resident ws_m (cost.Driver.Cost.lisp_core_mb +. ast_mb);
  compute_m ~tag:"lisp-init" cost.Driver.Cost.lisp_init_seconds;
  compute_m ~tag:"phase1" (Driver.Cost.phase1_seconds cost mw);
  overhead_m Master ~tag:"setup-parse" (Driver.Cost.setup_parse_seconds cost mw);
  (* Scheduling: derive the task placement directives. *)
  overhead_m Master ~tag:"sched" (0.1 *. float_of_int (Plan.task_count plan));
  (* Fork the section masters. *)
  let sections_done = Netsim.Sync.join (List.length plan.Plan.tasks_per_section) in
  List.iter
    (fun (section_name, tasks) ->
      Netsim.Des.spawn sim (fun () ->
          (* Section masters are C processes on the master's host. *)
          Netsim.Des.delay sim cost.Driver.Cost.c_process_seconds;
          overhead_m Section ~tag:"sect-interpret"
            (0.05 *. float_of_int (List.length tasks));
          let tasks_done = Netsim.Sync.join (List.length tasks) in
          (* [deps] gates dispatch.  Under [Proven] gating only the
             proven edges gate; the speculative remainder ([spec_deps])
             is checked by the commit protocol instead, and its hot
             subset ([hot_deps]) is what forces an abort.  A task pair
             joined by edges of both kinds is in [deps] and
             [spec_deps]; it is complete before any attempt claims, so
             the commit protocol never sees it pending. *)
          let deps_where keep =
            Sched.task_deps (Plan.section_edges ~keep plan section_name) tasks
          in
          let deps = deps_where (Sched.gates gating) in
          let spec_deps = deps_where (fun c -> spec_mode && c <> Plan.Proven) in
          let hot_deps = deps_where (fun c -> spec_mode && c = Plan.Hot) in
          let completion =
            Array.init (List.length tasks) (fun _ -> Netsim.Sync.event ())
          in
          List.iteri
            (fun ti (task : Plan.task) ->
              (* Remote process creation is serialized in the forking
                 parent (rsh-style), a real cost of UNIX process
                 hierarchies the paper complains about. *)
              Netsim.Des.delay sim cost.Driver.Cost.fm_fork_seconds;
              (* Per-task quantities (pure, shared by every attempt). *)
              let task_label = Plan.label task in
              let task_loc = Plan.task_loc task in
              let task_tokens =
                List.fold_left
                  (fun acc fw -> acc + fw.Driver.Compile.fw_tokens)
                  0 task.Plan.t_funcs
              in
              let out_wides =
                List.fold_left
                  (fun acc fw -> acc + fw.Driver.Compile.fw_wides)
                  0 task.Plan.t_funcs
              in
              (* Write-back: code, fixed framing, and the rendered
                 diagnostics the section master will combine. *)
              let output_bytes =
                (16.0 *. float_of_int out_wides)
                +. cost.Driver.Cost.diagnostic_bytes
                +. Driver.Cost.task_diag_bytes task.Plan.t_funcs
              in
              let record = record ~task:task_label in
              (* Durable publication of this task's artifacts into the
                 compile cache, by the winning attempt or a speculative
                 commit (the fallback publishes in its write-back) —
                 never by a superseded straggler or a quarantined
                 speculative artifact, so each key is stored at most
                 once. *)
              let publish () =
                Lisp.publish cfg sim cluster ~record mw task.Plan.t_funcs
              in
              (* Supervisor state: the completion token, the attempt
                 counter and the commit oracle's aborts so far. *)
              let completed = ref false in
              let attempt_no = ref 0 in
              let spec_fails = ref 0 in
              (* --- one function-master attempt ---
                 [noted] collects its placements; [spent] accumulates
                 the CPU it burned (for the wasted-work account if its
                 output is lost).  [Lisp.Lost] is raised when the
                 attempt's station crashes.

                 [staged] tells the watchdog a speculative attempt has
                 parked its output on the server and is merely awaiting
                 the commit verdict.  The result is the speculative
                 predecessors still incomplete when the attempt claimed
                 its station: empty means the attempt wrote back
                 durably, non-empty means it staged.  On every policy
                 but dag+spec [spec_deps] is all-empty, so the result
                 always is. *)
              let attempt ~attempt_n ~noted ~spent ~staged =
                (* Task-lifecycle spans go on the executing station's
                   track, so Gantt/Chrome views show the claim →
                   write-back chain per attempt. *)
                let span ws =
                  Lisp.span cfg sim ws ~task:task_label ~attempt:attempt_n
                in
                (* Pool stations are held exclusively, so the
                   busy-seconds delta around a step is exactly this
                   attempt's CPU (partial work of a crashed slice
                   included). *)
                let charged ws step =
                  let before = ws.Netsim.Host.busy_seconds in
                  Fun.protect step ~finally:(fun () ->
                      spent := !spent +. (ws.Netsim.Host.busy_seconds -. before))
                in
                (* Locality-aware re-dispatch: on a retry under a
                   non-FCFS policy, prefer a pool station that already
                   holds the bytes the master needs (then one holding
                   the core image), and skip the re-download of
                   whatever the granted station has.  First attempts
                   and the FCFS policy never reach these branches, so
                   their schedule is untouched. *)
                let locality =
                  attempt_n > 1 && cfg.Config.sched_policy <> Sched.Fcfs
                in
                let held ws file =
                  let hit = locality && Lisp.holds cluster ws file in
                  if hit && Trace.enabled tr then
                    Trace.instant tr ~track:ws_m.Netsim.Host.ws_id ~cat:"task"
                      ~name:"cache-hit"
                      ~args:
                        [
                          ("task", task_label);
                          ("attempt", string_of_int attempt_n);
                          ("file", file);
                          ("station", string_of_int ws.Netsim.Host.ws_id);
                        ]
                      ~at:(Netsim.Des.now sim) ();
                  hit
                in
                (* Claim a pool station for a master that reads [file],
                   noting the placement under the head name plus
                   [suffix]. *)
                let claim ~file suffix =
                  let rank w =
                    (if Lisp.holds cluster w file then 2 else 0)
                    + if Lisp.holds cluster w Lisp.core_file then 1 else 0
                  in
                  let ws =
                    Lisp.claim cfg sim cluster
                      ~rank:(if locality then Some rank else None)
                      ~task:task_label ~attempt:attempt_n
                  in
                  noted := (task_label ^ suffix, ws.Netsim.Host.ws_id) :: !noted;
                  ws
                in
                let start ws =
                  charged ws (fun () ->
                      Lisp.start cfg sim cluster ~noise ~held ~task:task_label
                        ~attempt:attempt_n ws)
                in
                let compute ws ~tag seconds =
                  charged ws (fun () -> compute ws ~tag seconds)
                in
                (* One phase over the task's functions on [ws], traced
                   as one span named by its tag; a compile-cache hit
                   skips a function's compute. *)
                let phase ws ~tag seconds =
                  let t0 = Netsim.Des.now sim in
                  List.iter
                    (fun (fw : Driver.Compile.func_work) ->
                      if not (Lisp.lookup cfg sim cluster ~record mw ws fw)
                      then begin
                        Lisp.set_resident ws
                          (Driver.Cost.function_master_mb cost fw);
                        ignore (compute ws ~tag (seconds cost fw))
                      end)
                    task.Plan.t_funcs;
                  span ws ~name:tag ~t0
                in
                (* Write bytes from [ws] to the server, spanned [name]. *)
                let put ws ~name bytes =
                  let t0 = Netsim.Des.now sim in
                  Lisp.store sim cluster bytes;
                  Lisp.alive sim ws;
                  span ws ~name ~t0
                in
                let release ws =
                  Lisp.set_resident ws 0.0;
                  Netsim.Host.release_station sim cluster ws
                in
                (* --- the function master proper --- *)
                let t_claim = Netsim.Des.now sim in
                let ws = claim ~file:src_file "" in
                (* Speculation decision, made once the station is
                   granted: any speculative predecessor not yet durably
                   complete makes this attempt speculative — its output
                   will be staged, not written back, and the commit
                   oracle rules at predecessor write-back time.  A task
                   past [Config.spec_budget] relaunches only once every
                   speculative predecessor is complete, so it no longer
                   speculates. *)
                let pending =
                  List.filter
                    (fun d -> not (Netsim.Sync.is_set completion.(d)))
                    spec_deps.(ti)
                in
                let speculative = pending <> [] in
                if speculative then record ~attempt:attempt_n Spec_dispatch;
                start ws;
                (* Read and re-parse its share of the source. *)
                let t_parse = Netsim.Des.now sim in
                Lisp.fetch sim cluster ~held ws ~file:src_file
                  (Driver.Cost.source_bytes cost task_loc);
                let reparse =
                  compute ws ~tag:"reparse"
                    (cost.Driver.Cost.sec_per_token *. float_of_int task_tokens)
                in
                span ws ~name:"parse" ~t0:t_parse;
                record (Overhead (Reparse, reparse));
                (* Output: staged into a versioned buffer when
                   speculative — the station is released immediately,
                   the commit verdict is awaited off-station, so
                   speculation never holds a pool slot hostage — else
                   the durable write-back. *)
                let write_back ws =
                  put ws
                    ~name:(if speculative then "stage" else "write-back")
                    output_bytes;
                  if speculative then begin
                    staged := true;
                    span ws ~name:"spec-attempt" ~t0:t_claim
                  end;
                  release ws
                in
                if not cfg.Config.fine_grained then begin
                  (* Coarse grain (the paper): phases 2+3 together. *)
                  phase ws ~tag:"phase23" Driver.Cost.phase23_seconds;
                  write_back ws
                end
                else begin
                  (* Fine grain: phase 2 here, then hand the IR to a
                     phase-3 master, a fresh Lisp on a (possibly
                     different) pool station. *)
                  phase ws ~tag:"phase2" Driver.Cost.phase2_seconds;
                  let ir_bytes =
                    List.fold_left
                      (fun acc fw -> acc +. Driver.Cost.ir_bytes fw)
                      0.0 task.Plan.t_funcs
                  in
                  put ws ~name:"write-ir" ir_bytes;
                  release ws;
                  let ir_file = "ir:" ^ task_label in
                  let ws3 = claim ~file:ir_file "#p3" in
                  start ws3;
                  let t_fir = Netsim.Des.now sim in
                  Lisp.fetch sim cluster ~held ws3 ~file:ir_file ir_bytes;
                  span ws3 ~name:"fetch-ir" ~t0:t_fir;
                  phase ws3 ~tag:"phase3" Driver.Cost.phase3_seconds;
                  write_back ws3
                end;
                pending
              in
              (* Supervision: attempts run under a retry budget (and,
                 under a fault plan, a deadline), then the task falls
                 back to the master's own Lisp. *)
              let work_estimate =
                cost.Driver.Cost.lisp_init_seconds
                +. (cost.Driver.Cost.sec_per_token *. float_of_int task_tokens)
                +. Driver.Cost.task_phase23_seconds cost task.Plan.t_funcs
                +. (if cfg.Config.fine_grained then
                      cost.Driver.Cost.lisp_init_seconds
                    else 0.0)
                +. 60.0 (* grace for downloads and queueing *)
              in
              let deadline = Config.deadline_factor *. work_estimate in
              let sup : sup_msg Netsim.Sync.mailbox = Netsim.Sync.mailbox () in
              let launch () =
                incr attempt_no;
                let n = !attempt_no in
                let record = record ~attempt:n in
                let staged = ref false in
                (* Watchdog: the section master presumes the attempt
                   lost if it has not reported by the deadline.  A
                   staged speculative attempt is off-station merely
                   awaiting its commit verdict — the oracle, not the
                   clock, rules on it.  Only a fault plan can lose an
                   attempt; on a fault-free host the deadline would
                   only count time queued for a pool station. *)
                if faulty then
                  Netsim.Des.spawn sim (fun () ->
                      Netsim.Des.delay sim deadline;
                      if (not !completed) && not !staged then begin
                        record Timeout;
                        Netsim.Sync.send sup (Msg_lost n)
                      end);
                let noted = ref [] in
                let spent = ref 0.0 in
                let wasted () = record (Wasted !spent) in
                (* The version-pointer flip that commits or quarantines
                   a staged artifact. *)
                let flip ev =
                  let t0 = Netsim.Des.now sim in
                  Lisp.store sim cluster spec_meta_bytes;
                  record ~t0 ev
                in
                Netsim.Des.spawn sim (fun () ->
                    match attempt ~attempt_n:n ~noted ~spent ~staged with
                    | exception Lisp.Lost _ ->
                      record Attempt_lost;
                      wasted ();
                      Netsim.Sync.send sup (Msg_lost n)
                    | pending -> (
                      (* The one settle point, off-station.  The online
                         race check is per involved edge: a pending
                         predecessor the attempt overlapped is a race
                         exactly when the pair really shares state (hot),
                         ruled on at that predecessor's write-back; cold
                         edges are conservative artifacts and commit
                         without waiting.  An attempt a re-dispatch or
                         the fallback beat is superseded, not repeated. *)
                      let conflict =
                        List.find_opt (fun d -> List.mem d hot_deps.(ti)) pending
                      in
                      Option.iter
                        (fun d -> Netsim.Sync.await completion.(d))
                        conflict;
                      if !completed then wasted ()
                      else
                        match conflict with
                        | None ->
                          (* Win: claim the completion token before the
                             pointer flip yields, so a staged artifact
                             becomes the durable write-back exactly once,
                             then publish the output and its
                             placements. *)
                          completed := true;
                          if pending <> [] then flip Spec_commit;
                          publish ();
                          List.iter (fun p -> record (Placement p)) !noted;
                          Netsim.Sync.send sup Msg_completed
                        | Some _ ->
                          (* Abort: quarantine the stale staged artifact
                             and surrender the attempt's CPU to the
                             wasted account. *)
                          flip Spec_abort;
                          wasted ();
                          Netsim.Sync.send sup (Msg_aborted n)))
              in
              let fallback () =
                (* Budget exhausted: compile the task in the master's
                   Lisp, which already holds the parsed module — the
                   sequential degradation rung.  Claim the completion
                   token first so any straggler counts as wasted. *)
                completed := true;
                let t0 = Netsim.Des.now sim in
                List.iter
                  (fun (fw : Driver.Compile.func_work) ->
                    let mb =
                      cost.Driver.Cost.data_mb_per_loc
                      *. float_of_int fw.Driver.Compile.fw_loc
                    in
                    Netsim.Host.add_resident ws_m mb;
                    compute_m ~tag:"fallback-phase23"
                      (Driver.Cost.phase23_seconds cost fw);
                    Netsim.Host.remove_resident ws_m mb)
                  task.Plan.t_funcs;
                Lisp.write_back cfg sim cluster ~record mw task.Plan.t_funcs
                  output_bytes;
                record ~attempt:(!attempt_no + 1) ~t0 Fallback;
                record (Placement (task_label, ws_m.Netsim.Host.ws_id))
              in
              (* Dependence gating happens inside the spawned process,
                 so the section master keeps forking the rest of its
                 queue while a gated task parks. *)
              Netsim.Des.spawn sim (fun () ->
                  List.iter (fun d -> Netsim.Sync.await completion.(d)) deps.(ti);
                  launch ();
                  let rec await budget =
                    match Netsim.Sync.recv sup with
                    | Msg_completed -> ()
                    | (Msg_lost n | Msg_aborted n)
                      when n <> !attempt_no || !completed ->
                      (* Stale attempt, or the task completed since
                         this verdict was posted. *)
                      await budget
                    | Msg_lost _ ->
                      if budget > 0 then begin
                        let step = cfg.Config.retry_budget - budget in
                        Netsim.Des.delay sim (Config.backoff_delay ~step);
                        (* A straggler may have finished during the
                           backoff; its Msg_completed is queued. *)
                        if not !completed then begin
                          record ~attempt:(!attempt_no + 1) Retry;
                          launch ();
                          await (budget - 1)
                        end
                      end
                      else fallback ()
                    | Msg_aborted _ ->
                      (* Misspeculation.  The conflicting predecessor
                         just wrote back durably, so an immediate
                         relaunch cannot re-conflict on it: no backoff,
                         and the retry budget (which pays for faults,
                         not oracle verdicts) is untouched.  Past the
                         speculation budget the task awaits every
                         speculative predecessor before relaunching,
                         which is the dag+lpt discipline for this
                         task. *)
                      incr spec_fails;
                      if !spec_fails >= cfg.Config.spec_budget then
                        List.iter
                          (fun d -> Netsim.Sync.await completion.(d))
                          spec_deps.(ti);
                      launch ();
                      await budget
                  in
                  await cfg.Config.retry_budget;
                  (* The task's output is durably written back —
                     whether by a surviving attempt or the fallback —
                     only here, so the completion event fires exactly
                     once per task, after the write that dependents
                     are allowed to read. *)
                  Netsim.Sync.set completion.(ti);
                  Netsim.Sync.signal tasks_done))
            tasks;
          Netsim.Sync.wait tasks_done;
          (* Combine per-function results and diagnostics. *)
          let sw =
            match
              List.find_opt
                (fun (s : Driver.Compile.section_work) ->
                  s.Driver.Compile.sw_name = section_name)
                mw.Driver.Compile.mw_sections
            with
            | Some sw -> sw
            | None ->
              failwith
                (Printf.sprintf
                   "Parrun: plan names section %S, but module %s only has: %s"
                   section_name mw.Driver.Compile.mw_name
                   (String.concat ", "
                      (List.map
                         (fun (s : Driver.Compile.section_work) ->
                           s.Driver.Compile.sw_name)
                         mw.Driver.Compile.mw_sections)))
          in
          overhead_m Section ~tag:"combine" (Driver.Cost.combine_seconds sw);
          Netsim.Sync.signal sections_done))
    plan.Plan.tasks_per_section;
  Netsim.Sync.wait sections_done;
  (* Phase 4 back in the master's Lisp process. *)
  Lisp.set_resident ws_m
    (cost.Driver.Cost.lisp_core_mb +. ast_mb
    +. (cost.Driver.Cost.retained_mb_per_loc *. float_of_int mw.Driver.Compile.mw_loc));
  compute_m ~tag:"phase4" (Driver.Cost.phase4_seconds cost mw);
  Lisp.store sim cluster (float_of_int (Driver.Compile.total_image_bytes mw));
  Lisp.set_resident ws_m 0.0;
  Netsim.Host.release_station sim cluster ws_m;
  on_finish (Netsim.Des.now sim)

let run (cfg : Config.t) (mw : Driver.Compile.module_work) (plan : Plan.t) : outcome =
  let tr = cfg.Config.trace in
  let fresh_trace =
    Trace.enabled tr && Trace.span_count tr = 0 && Trace.instant_count tr = 0
  in
  let scheduled = schedule cfg plan in
  let run, placed =
    Lisp.simulate cfg (fun sim cluster ~noise ~log ~on_finish ->
        [ master_process cfg sim cluster ~noise mw scheduled ~log ~on_finish ])
  in
  (* A gated schedule promises dependence order; when this run starts
     on an empty trace, let the trace prove it kept that promise
     (traces shared across runs, e.g. the parallel-make study, are
     skipped). *)
  (if fresh_trace then
     match
       Traceview.violations
         (Sched.gating cfg.Config.sched_policy)
         tr ~plan:scheduled
     with
     | [] -> ()
     | vs ->
       failwith
         ("Parrun.run: dependence-order violation(s):\n"
         ^ String.concat "\n" (List.map Traceview.violation_to_string vs)));
  {
    run = { run with Timings.dispatch_units = Plan.task_count scheduled };
    scheduled;
    (* Placements report in (task, station) order rather than
       completion order, which under supervision depends on the racing
       attempts — sorted output is stable across fault plans. *)
    station_of_task = List.sort compare placed;
  }
