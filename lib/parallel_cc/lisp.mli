(** The steps of one simulated Common-Lisp process, shared by the
    sequential compiler ({!Seqrun}) and the parallel compiler's function
    masters and sequential fallback ({!Parrun}), so the parallel
    compiler's implementation overhead (paper, section 4.2.3) is exactly
    the steps it adds; and the driver that runs a compilation on a
    fresh cluster.

    Every step and every process body takes one {!host}: the run's
    configuration, simulator, cluster, noise stream and event log,
    built once per compilation by {!simulate} and shared by all the
    processes it spawns.

    A step that finds its station crashed raises {!Lost}.  Only
    {!Parrun}'s supervised attempts run on faultable stations, and they
    catch it. *)

exception Lost of Netsim.Fault.failure

type host = private {
  cfg : Config.t;
  sim : Netsim.Des.t;
  cluster : Netsim.Host.cluster;
  noise : unit -> float; (** the run's one noise stream ({!Config.noise}) *)
  log : Timings.log; (** every process's counted events *)
}
(** The simulated host a compilation runs on: one cluster of
    {!Config.cluster} under one simulator.  Only {!simulate} builds
    one; steps and runners read its fields. *)

val set_resident : Netsim.Host.workstation -> float -> unit
(** Replace a station's resident set. *)

val core_file : string
(** File label of the shared Lisp core image. *)

val holds : host -> Netsim.Host.workstation -> string -> bool
(** Whether the station already fetched the file ({!Netsim.Net.cached}). *)

val span :
  host -> Netsim.Host.workstation -> task:string -> attempt:int ->
  name:string -> t0:float -> unit
(** A task-lifecycle span from [t0] to now on the station's track
    (category ["task"]); builds nothing when the trace is off. *)

val claim :
  host -> rank:(Netsim.Host.workstation -> int) option -> task:string ->
  attempt:int -> Netsim.Host.workstation
(** Claim a station FCFS, or the best-ranked free one
    ({!Netsim.Host.claim_prefer}), spanning the wait as ["claim"]. *)

val alive : host -> Netsim.Host.workstation -> unit
(** @raise Lost when the station has crashed by now. *)

val fetch :
  host -> held:(Netsim.Host.workstation -> string -> bool) ->
  Netsim.Host.workstation -> file:string -> float -> unit
(** Read the file's bytes onto the station, recording the transfer
    history, unless [held] says it has them; then check it is
    {!alive}. *)

val compute : host -> Netsim.Host.workstation -> tag:string -> float -> float
(** Run the CPU seconds scaled by the next noise draw, slowed by
    {!Config.cluster_slowdown}; return the scaled seconds.
    @raise Lost when the station fails under the work. *)

val start :
  host -> held:(Netsim.Host.workstation -> string -> bool) -> task:string ->
  attempt:int -> Netsim.Host.workstation -> unit
(** Lisp startup: download the core image (spanned ["transfer"]) when
    {!Config.t.core_download} is on and [held] does not say the station
    maps it already, then initialize (["lisp-init"]). *)

val lookup :
  host -> record:(Timings.event -> unit) -> Driver.Compile.module_work ->
  Netsim.Host.workstation -> Driver.Compile.func_work -> bool
(** Look the function up in the compile cache ({!Config.t.cache}, coarse
    grain only), recording the [Cache_hit] or [Cache_miss].  A hit
    fetches the artifact unless the station {!holds} it and returns
    [true]: skip the function's phases 2+3. *)

val store : host -> float -> unit
(** Write bytes from a client onto the server. *)

val publish :
  host -> record:(Timings.event -> unit) -> Driver.Compile.module_work ->
  Driver.Compile.func_work list -> unit
(** {!Cache.publish} the functions' artifacts, writing through to the
    server.  Call it only where their output became durable. *)

val write_back :
  host -> record:(Timings.event -> unit) -> Driver.Compile.module_work ->
  Driver.Compile.func_work list -> float -> unit
(** Durable write-back: {!store} the output bytes, then {!publish}. *)

val release : host -> Netsim.Host.workstation -> unit
(** Empty the station's resident set and hand it back to the pool. *)

val simulate :
  Config.t -> (host -> on_finish:(float -> unit) -> (unit -> unit) list) ->
  Timings.run * (string * int) list
(** Run a compilation on a fresh {!host}: spawn the processes in
    order, all on that one host, run to
    quiescence and {!Timings.tally} the log.  The elapsed time is the
    last [on_finish] report; the stations used are those that did any
    work.
    @raise Failure when no process reported [on_finish] before the
    simulation went quiet (every process parked: a deadlock). *)
