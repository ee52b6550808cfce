(* Workstations and the cluster.

   A workstation has one CPU (FCFS) and a fixed amount of physical
   memory; processes register their working sets so that CPU work can
   be slowed down by a caller-supplied factor reflecting paging and
   garbage collection (the cost model lives with the compiler driver —
   the host only tracks residency).

   The cluster is the pool of workstations the section masters draw
   from (first-come-first-served, per section 3.3).

   Faults: a cluster can carry a [Fault.plan].  Crashed stations make
   [compute] return [Fault.Station_failed] (checked once per slice, so
   detection latency is bounded by the slice length); crashed and
   owner-reclaimed stations are dropped from the pool by [claim] and
   [release_station].  Station 0 — the master's own workstation — is
   never wired to the plan, so the parallel driver's sequential
   fallback always has a live machine. *)

type workstation = {
  ws_id : int;
  cpu : Sync.resource;
  mem_mb : float;
  mutable resident_mb : float;
  mutable busy_seconds : float; (* accumulated CPU time: the paper's
                                   per-processor "CPU time" metric *)
  mutable crash_at : float; (* [infinity] = never *)
  mutable reclaim_at : float;
  mutable fault_slow : float -> float; (* time -> transient load factor *)
  mutable ws_trace : Trace.t; (* span sink; [Trace.none] = no recording *)
}

let workstation ~id ~mem_mb =
  {
    ws_id = id;
    cpu = Sync.resource 1;
    mem_mb;
    resident_mb = 0.0;
    busy_seconds = 0.0;
    crash_at = infinity;
    reclaim_at = infinity;
    fault_slow = (fun _ -> 1.0);
    ws_trace = Trace.none;
  }

(* Occupancy ratio used by paging models. *)
let memory_pressure ws = ws.resident_mb /. ws.mem_mb

let add_resident ws mb = ws.resident_mb <- ws.resident_mb +. mb
let remove_resident ws mb = ws.resident_mb <- max 0.0 (ws.resident_mb -. mb)

let crashed ws ~now =
  if now >= ws.crash_at then
    Some { Fault.failed_station = ws.ws_id; failed_at = ws.crash_at }
  else None

(* A station that crashed or was reclaimed is gone from the pool. *)
let available ws ~now = now < ws.crash_at && now < ws.reclaim_at

(* Run [seconds] of nominal CPU work on [ws].  The work is executed in
   slices; before each slice [factor] is consulted (e.g. paging or GC
   overhead given current residency) along with the fault plan's
   transient slowdown, so the effective time adapts as other processes
   come and go.  If the station crashes, the partial work is kept in
   [busy_seconds] (it really burned CPU) and the call reports
   [Fault.Station_failed] instead of completing.  A slice is one
   nominal second, which bounds crash-detection latency. *)
let slice = 1.0

let compute ?(tag = "cpu") sim ws ~factor ~seconds =
  if seconds < 0.0 then invalid_arg "Host.compute: negative work";
  let t0 = Des.now sim in
  let remaining = ref seconds in
  let burned = ref 0.0 in
  let failed = ref None in
  while !failed = None && !remaining > 0.0 do
    match crashed ws ~now:(Des.now sim) with
    | Some f -> failed := Some f
    | None ->
      let nominal = min slice !remaining in
      let f = max 1.0 (factor ws) *. max 1.0 (ws.fault_slow (Des.now sim)) in
      let actual = nominal *. f in
      Sync.use sim ws.cpu actual;
      ws.busy_seconds <- ws.busy_seconds +. actual;
      burned := !burned +. actual;
      remaining := !remaining -. nominal
  done;
  let outcome =
    match !failed with
    | Some f -> Fault.Station_failed f
    | None -> (
      (* The station may have died under the final slice: the work is
         done but its output is lost with the machine. *)
      match crashed ws ~now:(Des.now sim) with
      | Some f -> Fault.Station_failed f
      | None -> Fault.Completed)
  in
  (* One span per compute call: [nominal] is the work requested,
     [done] the nominal seconds actually consumed (less under a
     crash), [actual] the slowed CPU seconds burned.  The mean
     slowdown experienced is actual/done. *)
  if Trace.enabled ws.ws_trace then
    Trace.span ws.ws_trace ~track:ws.ws_id ~cat:"cpu" ~name:tag
      ~args:
        [
          ("tag", tag);
          ("nominal", Trace.farg seconds);
          ("done", Trace.farg (seconds -. !remaining));
          ("actual", Trace.farg !burned);
          ( "outcome",
            match outcome with Fault.Completed -> "ok" | _ -> "crashed" );
        ]
      ~t0 ~t1:(Des.now sim) ();
  outcome

type cluster = {
  stations : workstation array;
  ether : Net.ethernet;
  fs : Net.fileserver;
  free : int Queue.t; (* workstation pool, FCFS *)
  pool_waiters : (int -> unit) Queue.t;
  faults : Fault.plan;
  trace : Trace.t;
}

(* The fault plan is a static schedule, so its events can be traced up
   front; crash/reclaim instants and slowdown windows land on the
   affected station's track, brownouts and degradations on the
   file-server and Ethernet tracks. *)
let trace_fault_plan trace ~stations (faults : Fault.plan) =
  if Trace.enabled trace then
    List.iter
      (fun (e : Fault.event) ->
        let wired s = s > 0 && s < stations in
        match e with
        | Fault.Crash { station; at } when wired station ->
          Trace.instant trace ~track:station ~cat:"fault" ~name:"crash" ~at ()
        | Fault.Reclaim { station; at } when wired station ->
          Trace.instant trace ~track:station ~cat:"fault" ~name:"reclaim" ~at ()
        | Fault.Slowdown { station; from_; until; factor } when wired station ->
          Trace.span trace ~track:station ~cat:"fault" ~name:"slowdown"
            ~args:[ ("factor", Trace.farg factor) ]
            ~t0:from_ ~t1:until ()
        | Fault.Fs_brownout { from_; until; factor } ->
          Trace.span trace ~track:Trace.fs_track ~cat:"fault" ~name:"brownout"
            ~args:[ ("factor", Trace.farg factor) ]
            ~t0:from_ ~t1:until ()
        | Fault.Ether_degrade { from_; until; factor } ->
          Trace.span trace ~track:Trace.ether_track ~cat:"fault" ~name:"degrade"
            ~args:[ ("factor", Trace.farg factor) ]
            ~t0:from_ ~t1:until ()
        | Fault.Crash _ | Fault.Reclaim _ | Fault.Slowdown _ -> ())
      faults.Fault.events

let cluster ?(mem_mb = 16.0) ?ether ?fs ?(faults = Fault.none)
    ?(trace = Trace.none) ~stations () =
  let ether = match ether with Some e -> e | None -> Net.ethernet () in
  let fs = match fs with Some f -> f | None -> Net.fileserver () in
  let ws = Array.init stations (fun id -> workstation ~id ~mem_mb) in
  (* Wire the fault plan; station 0 (the master's own machine) stays
     immune so the degradation ladder always terminates. *)
  Array.iter
    (fun w ->
      w.ws_trace <- trace;
      if w.ws_id > 0 then begin
        w.crash_at <- Fault.crash_time faults ~station:w.ws_id;
        w.reclaim_at <- Fault.reclaim_time faults ~station:w.ws_id;
        w.fault_slow <-
          (fun at -> Fault.station_slowdown faults ~station:w.ws_id ~at)
      end)
    ws;
  ether.Net.degrade <- (fun at -> Fault.ether_factor faults ~at);
  fs.Net.brownout <- (fun at -> Fault.fs_factor faults ~at);
  ether.Net.trace <- trace;
  fs.Net.trace <- trace;
  trace_fault_plan trace ~stations faults;
  let free = Queue.create () in
  Array.iter (fun w -> Queue.push w.ws_id free) ws;
  { stations = ws; ether; fs; free; pool_waiters = Queue.create (); faults; trace }

(* Claim a free workstation (FCFS), blocking while none is available —
   the paper's first-come-first-served task distribution.  Stations
   that died while queued are silently discarded.  The traced
   pool-wait span runs from the request to the grant (zero-length when
   a live station was free), on the granted station's track. *)
let claim sim (c : cluster) : workstation =
  let t0 = Des.now sim in
  let rec go () =
    match Queue.take_opt c.free with
    | Some id ->
      let ws = c.stations.(id) in
      if available ws ~now:(Des.now sim) then ws else go ()
    | None ->
      let id = Des.suspend (fun wake -> Queue.push wake c.pool_waiters) in
      let ws = c.stations.(id) in
      if available ws ~now:(Des.now sim) then ws else go ()
  in
  let ws = go () in
  if Trace.enabled c.trace then
    Trace.span c.trace ~track:ws.ws_id ~cat:"pool" ~name:"pool-wait" ~t0
      ~t1:(Des.now sim) ();
  ws

(* Like [claim], but when several live stations are free, take the one
   [rank] scores highest instead of the head of the queue (FCFS order
   breaks ties, so a rank of constant 0 is exactly [claim]).  Used by
   the locality-aware re-dispatch: a station that already holds the
   task's bytes outranks a cold one.  With no live free station the
   blocking discipline is [claim]'s, unchanged. *)
let claim_prefer ~rank sim (c : cluster) : workstation =
  let now = Des.now sim in
  let live =
    Queue.fold
      (fun acc id -> if available c.stations.(id) ~now then id :: acc else acc)
      [] c.free
    |> List.rev
  in
  match live with
  | [] -> claim sim c
  | first :: rest ->
    let best =
      List.fold_left
        (fun best id ->
          if rank c.stations.(id) > rank c.stations.(best) then id else best)
        first rest
    in
    (* Extract [best]; dead stations stay queued (claim discards them
       when they surface, as always). *)
    let remaining =
      Queue.fold (fun acc id -> if id = best then acc else id :: acc) [] c.free
    in
    Queue.clear c.free;
    List.iter (fun id -> Queue.push id c.free) (List.rev remaining);
    let ws = c.stations.(best) in
    if Trace.enabled c.trace then
      Trace.span c.trace ~track:ws.ws_id ~cat:"pool" ~name:"pool-wait" ~t0:now
        ~t1:(Des.now sim) ();
    ws

(* A crashed or reclaimed station never rejoins the pool. *)
let release_station sim (c : cluster) (ws : workstation) =
  if available ws ~now:(Des.now sim) then
    match Queue.take_opt c.pool_waiters with
    | Some wake -> wake ws.ws_id
    | None -> Queue.push ws.ws_id c.free

(* Stations the fault plan has removed from the pool by [now] (the
   master's station is immune and never counted). *)
let lost_stations (c : cluster) ~now =
  Array.fold_left
    (fun acc w -> if w.ws_id > 0 && not (available w ~now) then acc + 1 else acc)
    0 c.stations

(* Aggregate CPU seconds per station (only stations that worked). *)
let cpu_times (c : cluster) : float list =
  Array.to_list c.stations
  |> List.filter_map (fun w -> if w.busy_seconds > 0.0 then Some w.busy_seconds else None)
