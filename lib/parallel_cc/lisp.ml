(* The steps every simulated Common-Lisp process performs, and the
   driver that runs a compilation on a fresh cluster.  Each step keeps
   its noise draws and [Trace.enabled] guards where they were: the
   processes of one host share its noise stream, and an untraced run
   builds no trace arguments. *)

exception Lost of Netsim.Fault.failure

type host = {
  cfg : Config.t;
  sim : Netsim.Des.t;
  cluster : Netsim.Host.cluster;
  noise : unit -> float;
  log : Timings.log;
}

let set_resident ws mb =
  Netsim.Host.remove_resident ws ws.Netsim.Host.resident_mb;
  Netsim.Host.add_resident ws mb

let core_file = "core"

let holds h ws file =
  Netsim.Net.cached h.cluster.Netsim.Host.ether ~client:ws.Netsim.Host.ws_id
    ~file

let span h ws ~task ~attempt ~name ~t0 =
  let tr = h.cfg.Config.trace in
  if Trace.enabled tr then
    Trace.span tr ~track:ws.Netsim.Host.ws_id ~cat:"task" ~name
      ~args:[ ("task", task); ("attempt", string_of_int attempt) ]
      ~t0 ~t1:(Netsim.Des.now h.sim) ()

let claim h ~rank ~task ~attempt =
  let t0 = Netsim.Des.now h.sim in
  let ws =
    match rank with
    | Some rank -> Netsim.Host.claim_prefer ~rank h.sim h.cluster
    | None -> Netsim.Host.claim h.sim h.cluster
  in
  span h ws ~task ~attempt ~name:"claim" ~t0;
  ws

(* Network operations do not touch the station's CPU, so a crash
   under one is only noticed by asking afterwards. *)
let alive h ws =
  match Netsim.Host.crashed ws ~now:(Netsim.Des.now h.sim) with
  | Some f -> raise (Lost f)
  | None -> ()

let fetch h ~held ws ~file bytes =
  if not (held ws file) then
    Netsim.Net.fetch ~client:ws.Netsim.Host.ws_id ~file h.sim
      h.cluster.Netsim.Host.fs h.cluster.Netsim.Host.ether ~bytes;
  alive h ws

let compute h ws ~tag seconds =
  let seconds = seconds *. h.noise () in
  match
    Netsim.Host.compute h.sim ws
      ~factor:(Config.cluster_slowdown h.cfg h.cluster) ~tag ~seconds
  with
  | Netsim.Fault.Completed -> seconds
  | Netsim.Fault.Station_failed f -> raise (Lost f)

(* A warm station maps the core image it already holds: same resident
   set, no wire. *)
let start h ~held ~task ~attempt ws =
  let cost = h.cfg.Config.cost in
  (if h.cfg.Config.core_download && not (held ws core_file) then begin
     let t0 = Netsim.Des.now h.sim in
     Netsim.Net.fetch ~client:ws.Netsim.Host.ws_id ~file:core_file h.sim
       h.cluster.Netsim.Host.fs h.cluster.Netsim.Host.ether
       ~bytes:cost.Driver.Cost.lisp_core_bytes;
     span h ws ~task ~attempt ~name:"transfer" ~t0
   end);
  alive h ws;
  set_resident ws cost.Driver.Cost.lisp_core_mb;
  ignore
    (compute h ws ~tag:"lisp-init" cost.Driver.Cost.lisp_init_seconds)

(* The compile cache memoizes whole-function artifacts.  The
   fine-grained split tasks hand IR between two masters and never
   produce one, so they bypass the store — in both runners, so a
   seq/par comparison is never half-cached.  [None] makes every lookup
   and publication evaporate, leaving the event schedule bit-identical
   to a cacheless build. *)
let cache (cfg : Config.t) =
  match cfg.Config.cache with
  | Some c when not cfg.Config.fine_grained -> Some c
  | _ -> None

let lookup h ~record (mw : Driver.Compile.module_work) ws
    (fw : Driver.Compile.func_work) =
  match (cache h.cfg, fw.Driver.Compile.fw_key) with
  | Some c, Some key -> (
    let func = fw.Driver.Compile.fw_name in
    let owner = Cache.owner ~modul:mw.Driver.Compile.mw_name fw in
    match Cache.find c ~owner ~key with
    | Cache.Hit e ->
      record (Timings.Cache_hit { func; key });
      fetch h ~held:(holds h) ws ~file:("art:" ^ key)
        (Cache.meta_bytes +. e.Cache.e_bytes);
      true
    | Cache.Miss { stale } ->
      record (Timings.Cache_miss { func; key; invalidated = stale });
      false)
  | _ -> false

let store h bytes =
  Netsim.Net.store h.sim h.cluster.Netsim.Host.fs h.cluster.Netsim.Host.ether
    ~bytes

(* Only newly stored artifacts cost anything: one store of payload and
   index bytes, alongside the durable copy already written. *)
let publish h ~record (mw : Driver.Compile.module_work) funcs =
  Option.iter
    (fun c ->
      Cache.publish c ~modul:mw.Driver.Compile.mw_name ~record ~store:(store h)
        funcs)
    (cache h.cfg)

let write_back h ~record mw funcs bytes =
  store h bytes;
  publish h ~record mw funcs

let release h ws =
  set_resident ws 0.0;
  Netsim.Host.release_station h.sim h.cluster ws

let simulate cfg processes =
  let sim = Netsim.Des.create () in
  let cluster = Config.cluster cfg in
  let noise = Config.noise cfg in
  let log = Timings.empty_log () in
  let finish = ref None in
  List.iter (Netsim.Des.spawn sim)
    (processes { cfg; sim; cluster; noise; log } ~on_finish:(fun t ->
         finish := Some t));
  ignore (Netsim.Des.run sim);
  let finish =
    match !finish with
    | Some t -> t
    | None ->
      (* Every process parked: a deadlock, not a 0 s compile. *)
      failwith
        (Printf.sprintf "Lisp.simulate: quiet at %.3f s, nothing finished"
           (Netsim.Des.now sim))
  in
  let cpu = Netsim.Host.cpu_times cluster in
  Timings.tally log
    {
      Timings.zero with
      elapsed = finish;
      cpu_per_station = cpu;
      stations_used = List.length cpu;
      stations_lost = Netsim.Host.lost_stations cluster ~now:finish;
    }
