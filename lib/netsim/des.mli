(** Discrete-event simulation engine with lightweight processes.

    Processes are ordinary OCaml functions running under an effect
    handler; {!delay} suspends a process for simulated time, {!suspend}
    parks it until an explicit wake-up.  Events at equal times fire in
    creation order, so simulations are deterministic.

    The engine knows nothing about networks or workstations — those are
    built on top in {!Sync}, {!Net} and {!Host}. *)

type t
(** A simulation instance: virtual clock plus pending-event queue. *)

val create : unit -> t
(** A fresh simulation at time [0.]. *)

val now : t -> float
(** Current virtual time in seconds. *)

val schedule : t -> at:float -> (unit -> unit) -> unit
(** Run a callback at absolute virtual time [at].
    @raise Invalid_argument if [at] is in the past. *)

val delay : t -> float -> unit
(** [delay sim dt] suspends the calling process for [dt] simulated
    seconds.  Must be called inside a process started by {!spawn}.
    When no pending event falls at or before [now sim +. dt], the
    process resumes in place: the clock advances to that time and one
    event is counted, exactly as if its wake-up had fired next.
    Otherwise the wake-up is queued behind every event due by then.
    @raise Invalid_argument on negative durations. *)

val suspend : (('a -> unit) -> unit) -> 'a
(** [suspend register] parks the calling process; [register] receives a
    [wake] function that resumes it (delivering a value) at the
    simulation time at which [wake] is called.  [wake] must be called
    exactly once. *)

exception Dead_process of string
(** Raised when a process is woken twice. *)

val spawn : t -> (unit -> unit) -> unit
(** Start a new process at the current simulation time. *)

val run : t -> float
(** Process events until the queue drains; returns the final
    simulation time. *)
