(* Configuration of one simulated compilation run: the cost model, the
   cluster, and the toggles used by the ablation benchmarks. *)

type t = {
  cost : Driver.Cost.model;
  stations : int; (* workstation pool size (including the master's) *)
  memory_model : bool; (* GC/paging slowdowns (ablation: off = 1.0) *)
  core_download : bool; (* Lisp core image fetched over the network *)
  ideal_network : bool; (* no Ethernet contention, instant file server *)
  fine_grained : bool; (* split phases 2 and 3 into separate tasks *)
  opt_level : int;
  noise_seed : int; (* 0 = no measurement noise *)
  sched_policy : Sched.policy; (* dispatch order/batching; [Fcfs] =
                                  the paper's behaviour, bit-identical *)
  batch_threshold : float; (* tasks under this many estimated seconds
                              are batched by [Sched.Lpt_batch] *)
  static_cost : bool; (* rank/batch by the absint statement-execution
                         bound instead of measured work units *)
  faults : Netsim.Fault.plan; (* station crashes etc.; [none] = ideal *)
  deadline_factor : float; (* task deadline = factor * cost estimate *)
  retry_budget : int; (* re-dispatches before sequential fallback *)
  retry_backoff_seconds : float; (* base of the exponential backoff *)
  spec_budget : int; (* misspeculations per task before its speculative
                        edges harden to gated; at least 1 under
                        dag+spec *)
  cache : Cache.t option; (* content-addressed compile cache shared
                             across runs; None (the default) charges no
                             lookups and skips nothing — bit-identical
                             to a cacheless build.  Coarse grain only:
                             fine_grained runs bypass it. *)
  trace : Trace.t; (* span sink wired into the cluster; [Trace.none] =
                      no recording, zero overhead *)
}

let default =
  {
    cost = Driver.Cost.default;
    stations = 16;
    memory_model = true;
    core_download = true;
    ideal_network = false;
    fine_grained = false;
    opt_level = 2;
    noise_seed = 0;
    (* FCFS keeps the paper's timings; 60 s separates f_tiny/f_small
       tasks (≈10/78 estimated seconds) from everything the paper
       calls worth a processor of its own. *)
    sched_policy = Sched.Fcfs;
    batch_threshold = 60.0;
    static_cost = false;
    faults = Netsim.Fault.none;
    deadline_factor = 6.0;
    retry_budget = 2;
    retry_backoff_seconds = 30.0;
    spec_budget = 2;
    cache = None;
    trace = Trace.none;
  }

(* Exponential backoff before re-dispatching a timed-out attempt:
   [step] counts prior re-dispatches of the task (0 for the first
   retry). *)
let backoff_delay (cfg : t) ~step =
  cfg.retry_backoff_seconds *. (2.0 ** float_of_int step)

(* Deterministic multiplicative noise, mirroring the paper's repeated
   measurements (individual runs deviate a few percent; section 4.2):
   +/- this fraction on CPU times. *)
let noise_amplitude = 0.04

let noise (cfg : t) : unit -> float =
  if cfg.noise_seed = 0 then fun () -> 1.0
  else begin
    let state = ref (cfg.noise_seed land 0x3FFFFFFF) in
    fun () ->
      state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
      let u = float_of_int !state /. 1073741824.0 in
      1.0 +. (noise_amplitude *. ((2.0 *. u) -. 1.0))
  end

let cluster (cfg : t) : Netsim.Host.cluster =
  let ether =
    if cfg.ideal_network then
      Netsim.Net.ethernet ~bytes_per_sec:1e12 ~contention_alpha:0.0 ()
    else Netsim.Net.ethernet ()
  in
  let fs =
    if cfg.ideal_network then
      Netsim.Net.fileserver ~seek_seconds:0.0 ~disk_bytes_per_sec:1e12 ()
    else Netsim.Net.fileserver ()
  in
  Netsim.Host.cluster ~mem_mb:cfg.cost.Driver.Cost.workstation_mb ~ether ~fs
    ~faults:cfg.faults ~trace:cfg.trace ~stations:cfg.stations ()

(* Memory-pressure slowdown for a station, honouring the ablation.  The
   paging term is coupled to the whole cluster: diskless stations page
   through the shared file server. *)
let cluster_slowdown (cfg : t) (cluster : Netsim.Host.cluster)
    (ws : Netsim.Host.workstation) =
  if not cfg.memory_model then 1.0
  else begin
    let pagers =
      Array.fold_left
        (fun acc w -> if Netsim.Host.memory_pressure w > 1.0 then acc + 1 else acc)
        0 cluster.Netsim.Host.stations
    in
    Driver.Cost.slowdown cfg.cost
      ~pressure:(Netsim.Host.memory_pressure ws)
      ~pagers
  end
