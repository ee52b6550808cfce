(** Deterministic, seed-driven fault plans for the simulated host.

    The paper's host is an Ethernet of borrowed, "hopefully idle"
    diskless SUNs: machines crash, get reclaimed by their owners, or
    slow to a crawl under somebody else's paging.  A {!plan} is a fixed
    schedule of such events — same plan ⇒ same simulated fault
    behaviour — injected through hooks in {!Host} and {!Net} so that
    the recovery protocol of the parallel driver can be studied
    reproducibly.

    Station 0 is by convention the master's own workstation (the
    machine the user sits at) and is never faulted by {!random} nor
    wired by {!Host.cluster}: the sequential-fallback rung of the
    degradation ladder must always be able to terminate there. *)

type event =
  | Crash of { station : int; at : float }
      (** The station dies at [at]: in-flight work on it is lost
          (surfaces as {!Station_failed}), and it never rejoins the
          pool. *)
  | Reclaim of { station : int; at : float }
      (** The owner takes the machine back at [at]: work in flight is
          allowed to finish, but the station cannot be claimed
          afterwards. *)
  | Slowdown of { station : int; from_ : float; until : float; factor : float }
      (** Transient load (someone logged in, paging): CPU work on the
          station is [factor] times slower inside the window. *)
  | Fs_brownout of { from_ : float; until : float; factor : float }
      (** The shared file server degrades: every disk operation takes
          [factor] times longer inside the window. *)
  | Ether_degrade of { from_ : float; until : float; factor : float }
      (** The shared segment degrades (a misbehaving transceiver):
          transfer chunks take [factor] times longer in the window. *)

type plan = { events : event list }

val none : plan
val is_none : plan -> bool

(** {1 Failure outcome}

    Crashes surface as a value — never as an OCaml exception escaping
    the discrete-event simulation. *)

type failure = { failed_station : int; failed_at : float }
type outcome = Completed | Station_failed of failure

(** {1 Time-indexed queries}

    All pure: the plan is a static schedule, so every consumer sees the
    same deterministic answer. *)

val crash_time : plan -> station:int -> float
(** Earliest crash of [station]; [infinity] when it never crashes. *)

val reclaim_time : plan -> station:int -> float

val station_slowdown : plan -> station:int -> at:float -> float
(** Product of the slowdown factors of every window containing [at]
    (>= 1.0). *)

val fs_factor : plan -> at:float -> float
val ether_factor : plan -> at:float -> float

(** {1 Plan generation} *)

val random :
  seed:int -> stations:int -> rate:float -> horizon:float -> unit -> plan
(** A deterministic plan over a pool of [stations] (ids 0..n-1; id 0 is
    never faulted).  [rate] in [0,1] scales how many stations are hit;
    event times fall inside [0, horizon].  Same arguments ⇒ same plan,
    and for a fixed seed the plan at a higher rate is a superset of the
    plan at a lower rate, so elapsed-time inflation can be studied
    monotonically.  [rate = 0.0] yields {!none}. *)

val describe : plan -> string list
