(* Timing results of one (simulated) compilation run, and the overhead
   decomposition of section 4.2.3.

   Elapsed ("user") time is the wall-clock the user waits; CPU time is
   reported per processor, as in the paper's figures.  The
   implementation overhead is the extra work the parallel compiler does
   compared to the sequential one: the master's setup parse and
   scheduling, the section masters (startup, directive interpretation,
   combining results and diagnostics), and the function masters'
   re-parsing of their share of the source.  The system overhead is the
   remainder of the total overhead — process startup, network and file
   server load, GC and paging. *)

type run = {
  elapsed : float;
  cpu_per_station : float list; (* busy seconds of each station used *)
  master_cpu : float; (* setup parse + scheduling *)
  section_cpu : float; (* section-master work *)
  extra_parse_cpu : float; (* function masters re-parsing *)
  stations_used : int;
  dispatch_units : int; (* function-master tasks actually launched
                           (after batching; 1 for a sequential run) *)
  retries : int; (* task re-dispatches after crash or timeout *)
  stations_lost : int; (* stations crashed or reclaimed by run's end *)
  fallback_tasks : int; (* tasks finished sequentially on the master *)
  wasted_cpu : float; (* CPU burned by attempts whose output was lost *)
  spec_dispatched : int; (* attempts launched past a speculative edge *)
  spec_committed : int; (* speculative attempts whose staged output
                           won the commit check *)
  spec_rolled_back : int; (* speculative attempts aborted by the commit
                             oracle (charged to wasted_cpu) *)
  cache_hits : int; (* functions whose phase-2/3 artifact came from the
                       compile cache (compute skipped) *)
  cache_misses : int; (* functions looked up but computed; includes the
                         invalidated ones *)
  cache_invalidated : int; (* misses whose owner previously published a
                              different key: dependency-aware
                              invalidations, a subset of cache_misses *)
}

let zero =
  {
    elapsed = 0.0;
    cpu_per_station = [];
    master_cpu = 0.0;
    section_cpu = 0.0;
    extra_parse_cpu = 0.0;
    stations_used = 0;
    dispatch_units = 0;
    retries = 0;
    stations_lost = 0;
    fallback_tasks = 0;
    wasted_cpu = 0.0;
    spec_dispatched = 0;
    spec_committed = 0;
    spec_rolled_back = 0;
    cache_hits = 0;
    cache_misses = 0;
    cache_invalidated = 0;
  }

(* --- the run log ---

   The implementation-overhead CPU of section 4.2.3: the master's setup
   parse and scheduling, the section masters' work, and the function
   masters' re-parsing. *)
type overhead = Master | Section | Reparse

(* One run-log entry.  [Overhead] carries nominal seconds, [Wasted] the
   CPU an attempt burned for nothing. *)
type event =
  | Overhead of overhead * float
  | Retry
  | Timeout
  | Attempt_lost
  | Wasted of float
  | Fallback
  | Spec_dispatch
  | Spec_commit
  | Spec_abort
  | Cache_hit of { func : string; key : string }
  | Cache_miss of { func : string; key : string; invalidated : bool }
  | Cache_store of { func : string; key : string }
  | Placement of (string * int)

type log = event Queue.t

let empty_log () : log = Queue.create ()

(* Append [ev] to the log and emit it on [track] as its trace instant,
   or as its span from [t0] to [now].  Overhead CPU is traced by the
   compute span that burned it, placements by the claim spans. *)
let record (log : log) tr ~track ~now ?(task = "") ?(attempt = 0) ?(t0 = 0.0)
    ev =
  Queue.push ev log;
  if Trace.enabled tr then begin
    let args = [ ("task", task); ("attempt", string_of_int attempt) ] in
    let instant ?(cat = "task") ?(args = args) name =
      Trace.instant tr ~track ~cat ~name ~args ~at:now ()
    in
    let span name = Trace.span tr ~track ~cat:"task" ~name ~args ~t0 ~t1:now () in
    (* Compile-cache index events live in their own category: the
       "cache-hit" task instant is the byte-level locality cache. *)
    let indexed name ~func ~key extra =
      instant ~cat:"cache"
        ~args:(("task", task) :: ("func", func) :: ("key", key) :: extra)
        name
    in
    match ev with
    | Overhead _ | Placement _ -> ()
    | Retry -> instant "retry"
    | Timeout -> instant "timeout"
    | Attempt_lost -> instant "attempt-lost"
    | Wasted cpu -> instant ~args:(args @ [ ("cpu", Trace.farg cpu) ]) "wasted"
    | Spec_dispatch -> instant "spec-dispatch"
    | Fallback -> span "fallback"
    | Spec_commit -> span "spec-commit"
    | Spec_abort -> span "spec-abort"
    | Cache_hit { func; key } -> indexed "cache-hit" ~func ~key []
    | Cache_miss { func; key; invalidated } ->
      indexed "cache-miss" ~func ~key
        [ ("invalidated", if invalidated then "1" else "0") ]
    | Cache_store { func; key } -> indexed "cache-store" ~func ~key []
  end

(* The run's counters and placements as one fold over the log.  Append
   order is the order the events happened in, so every float sum is
   reproducible bit for bit. *)
let tally (log : log) (r : run) =
  Queue.fold
    (fun ((r : run), placed) ev ->
      match ev with
      | Overhead (Master, s) ->
        ({ r with master_cpu = r.master_cpu +. s }, placed)
      | Overhead (Section, s) ->
        ({ r with section_cpu = r.section_cpu +. s }, placed)
      | Overhead (Reparse, s) ->
        ({ r with extra_parse_cpu = r.extra_parse_cpu +. s }, placed)
      | Retry -> ({ r with retries = r.retries + 1 }, placed)
      | Wasted s -> ({ r with wasted_cpu = r.wasted_cpu +. s }, placed)
      | Fallback -> ({ r with fallback_tasks = r.fallback_tasks + 1 }, placed)
      | Spec_dispatch ->
        ({ r with spec_dispatched = r.spec_dispatched + 1 }, placed)
      | Spec_commit -> ({ r with spec_committed = r.spec_committed + 1 }, placed)
      | Spec_abort ->
        ({ r with spec_rolled_back = r.spec_rolled_back + 1 }, placed)
      | Cache_hit _ -> ({ r with cache_hits = r.cache_hits + 1 }, placed)
      | Cache_miss { invalidated; _ } ->
        ( {
            r with
            cache_misses = r.cache_misses + 1;
            cache_invalidated = r.cache_invalidated + Bool.to_int invalidated;
          },
          placed )
      | Placement p -> (r, p :: placed)
      | Timeout | Attempt_lost | Cache_store _ -> (r, placed))
    (r, []) log

type comparison = {
  processors : int; (* function masters running in parallel *)
  seq : run;
  par : run;
  speedup : float; (* sequential elapsed / parallel elapsed *)
  total_overhead : float; (* parallel elapsed - ideal *)
  impl_overhead : float;
  sys_overhead : float;
  rel_total_overhead : float; (* percent of parallel elapsed *)
  rel_sys_overhead : float;
}

(* Ideal parallel time: perfect division of the sequential elapsed time
   over the processors that carry function masters. *)
let ideal_time ~(seq : run) ~processors =
  seq.elapsed /. float_of_int (max 1 processors)

let compare_runs ~processors ~(seq : run) ~(par : run) : comparison =
  let ideal = ideal_time ~seq ~processors in
  let total_overhead = par.elapsed -. ideal in
  let impl_overhead = par.master_cpu +. par.section_cpu +. par.extra_parse_cpu in
  let sys_overhead = total_overhead -. impl_overhead in
  {
    processors;
    seq;
    par;
    speedup = Stats.speedup ~sequential:seq.elapsed ~parallel:par.elapsed;
    total_overhead;
    impl_overhead;
    sys_overhead;
    rel_total_overhead = Stats.percent_of ~part:total_overhead ~total:par.elapsed;
    rel_sys_overhead = Stats.percent_of ~part:sys_overhead ~total:par.elapsed;
  }

let comparison_table (c : comparison) : Stats.Table.t =
  List.fold_left
    (fun table (label, v) ->
      Stats.Table.add_row table [ label; Printf.sprintf "%.2f" v ])
    (Stats.Table.make ~title:"Overhead decomposition"
       ~columns:[ "quantity"; "seconds" ])
    [
      ("elapsed", c.par.elapsed);
      ("ideal", ideal_time ~seq:c.seq ~processors:c.processors);
      ("total overhead", c.total_overhead);
      ("implementation overhead", c.impl_overhead);
      ("system overhead", c.sys_overhead);
      ("total overhead %", c.rel_total_overhead);
      ("system overhead %", c.rel_sys_overhead);
    ]

let max_cpu (r : run) =
  match r.cpu_per_station with [] -> 0.0 | l -> Stats.maximum l

(* Machine-readable comparison.  Floats print with %.17g so they
   round-trip exactly. *)
let comparison_to_json (c : comparison) : string =
  let open Stats.Json in
  let run (r : run) =
    Obj [ ("elapsed", Exact r.elapsed); ("master_cpu", Exact r.master_cpu);
          ("section_cpu", Exact r.section_cpu);
          ("extra_parse_cpu", Exact r.extra_parse_cpu);
          ("stations_used", Int r.stations_used);
          ("dispatch_units", Int r.dispatch_units); ("retries", Int r.retries);
          ("stations_lost", Int r.stations_lost);
          ("fallback_tasks", Int r.fallback_tasks); ("wasted_cpu", Exact r.wasted_cpu);
          ("spec_dispatched", Int r.spec_dispatched);
          ("spec_committed", Int r.spec_committed);
          ("spec_rolled_back", Int r.spec_rolled_back);
          ("cache_hits", Int r.cache_hits); ("cache_misses", Int r.cache_misses);
          ("cache_invalidated", Int r.cache_invalidated);
          ("cpu_per_station", List (List.map (fun x -> Exact x) r.cpu_per_station)) ]
  in
  to_string
    (Obj [ ("schema", Str "warpcc-simulate/3"); ("processors", Int c.processors);
           ("speedup", Exact c.speedup); ("total_overhead", Exact c.total_overhead);
           ("impl_overhead", Exact c.impl_overhead);
           ("sys_overhead", Exact c.sys_overhead);
           ("rel_total_overhead", Exact c.rel_total_overhead);
           ("rel_sys_overhead", Exact c.rel_sys_overhead);
           ("seq", run c.seq); ("par", run c.par) ])
