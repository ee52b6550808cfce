(** DES-timestamped span tracing for the simulated host.

    A trace collects typed {!span}s (intervals on a per-workstation
    track) and {!instant}s (point events), timestamped with the
    simulated DES clock by the caller.  Recording never consults a
    clock or schedules an event, so it has zero effect on simulated
    timings; the disabled sink {!none} makes every emit a constant-time
    no-op so untraced runs cost nothing.

    Conventional categories, relied upon by the exporters and by
    [Parallel_cc.Traceview]:
    - ["cpu"]: CPU work from [Host.compute], args [tag] (phase label),
      [nominal] (requested seconds), [done] (nominal seconds actually
      consumed), [actual] (slowed seconds burned), [outcome]
      ([ok]/[crashed]).
    - ["net"]: Ethernet transfers and file-server disk operations, on
      the {!ether_track} and {!fs_track} tracks, args [bytes].
    - ["pool"]: workstation-pool waits (claim to grant).
    - ["task"]: task-lifecycle stages from the runners (claim,
      transfer, parse, phase2/phase3/phase23, write-back, fallback)
      plus [retry]/[timeout]/[attempt-lost]/[wasted] instants.
    - ["fault"]: the fault plan (crash/reclaim instants, slowdown and
      brownout windows).
    - ["make"]: per-module spans of the parallel-make study. *)

type span = {
  track : int;
  cat : string;
  name : string;
  t0 : float;
  t1 : float;
  args : (string * string) list;
}

type instant = {
  i_track : int;
  i_cat : string;
  i_name : string;
  at : float;
  i_args : (string * string) list;
}

type t

val create : unit -> t
(** A fresh, enabled trace. *)

val none : t
(** The shared no-op sink: {!enabled} is false and every emit returns
    immediately without allocating. *)

val enabled : t -> bool
(** Guard for call sites that would build expensive argument lists. *)

val ether_track : int
(** Track id of the shared Ethernet segment (900). *)

val fs_track : int
(** Track id of the file server (901). *)

val track_name : int -> string

val span :
  t ->
  track:int ->
  cat:string ->
  name:string ->
  ?args:(string * string) list ->
  t0:float ->
  t1:float ->
  unit ->
  unit
(** Record a completed interval.
    @raise Invalid_argument if [t1 < t0]. *)

val instant :
  t ->
  track:int ->
  cat:string ->
  name:string ->
  ?args:(string * string) list ->
  at:float ->
  unit ->
  unit

val farg : float -> string
(** Format a float argument so that it round-trips exactly
    ([%.17g]) — metric derivations can then reproduce accumulated sums
    bit for bit. *)

val arg_float : string -> (string * string) list -> float option
(** Look up and parse a float argument. *)

val spans : t -> span list
(** All spans in emission order. *)

val instants : t -> instant list
val span_count : t -> int
val instant_count : t -> int
val clear : t -> unit

val end_time : t -> float
(** Latest end of any non-fault span: the traced run's elapsed time
    (fault-plan windows may extend past the useful run). *)

val used_tracks : t -> int list

val counter_points : t -> (span -> bool) -> (float * int) list
(** Step function of concurrently open selected spans over time:
    one [(time, value)] point per change, [-1] edges applying before
    [+1] at equal times (touching intervals do not overlap). *)

val to_chrome_json : ?flows:(int * float * int * float) list -> t -> string
(** The trace as Chrome trace-event JSON ([chrome://tracing] or
    Perfetto loadable): one thread per track, spans as ["X"] duration
    events, instants as ["i"] events, args that print back as
    themselves as an integer or a {!farg} float as JSON numbers.  Three
    derived Perfetto counter tracks ride along: [stations-busy]
    (concurrent CPU spans on workstation tracks), [pool-queue-depth]
    (open claim-to-grant waits) and [fs-in-flight] (open file-server
    operations).  [flows] — [(from_track, from_t, to_track, to_t)]
    hops, e.g. [Parallel_cc.Critpath.path_flows] — render as
    ["s"]/["f"] flow-arrow pairs named [critical-path]. *)

val gantt : ?width:int -> t -> Stats.Table.t
(** ASCII Gantt timeline: one row per track — infrastructure tracks
    labelled by name ([ethernet], [file server]) — and [width] time
    buckets (default 64; [warpcc simulate --gantt-width] plumbs this);
    ['#'] CPU, ['~'] network, ['.'] pool wait, ['x'] dead station.
    The busy column counts CPU seconds on workstation tracks and
    transfer/disk seconds on the infrastructure tracks.
    @raise Invalid_argument when [width <= 0]. *)
