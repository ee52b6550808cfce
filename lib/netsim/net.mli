(** Network models: a shared Ethernet segment and an NFS-style file
    server — the host environment of the paper's section 3.3 (diskless
    workstations sharing one file system over a 10 Mbit/s Ethernet). *)

type ethernet = {
  bytes_per_sec : float;
  contention_alpha : float; (** extra cost per concurrent transfer *)
  mutable active : int; (** transfers currently in flight *)
  mutable degrade : float -> float;
      (** fault plan: extra slowdown factor at a simulated time
          (identity — exactly 1.0 — when no plan is wired) *)
  mutable trace : Trace.t;
      (** span sink for transfers ({!Trace.none} = no recording, the
          default; wired by [Host.cluster]) *)
  fetched : (int * string, unit) Hashtbl.t;
      (** transfer history: (client station, file label) pairs recorded
          by {!fetch} when the caller identifies itself — consult with
          {!cached}.  Bookkeeping only; it never affects the event
          schedule. *)
}
(** A shared segment.  Transfers proceed in 16 KiB chunks; each chunk's
    effective rate is divided by [1 + alpha * (active - 1)] (collisions
    and exponential backoff). *)

val ethernet :
  ?bytes_per_sec:float -> ?contention_alpha:float -> unit -> ethernet
(** Defaults: 1.25 MB/s (10 Mbit/s), alpha 0.6. *)

val transfer : Des.t -> ethernet -> bytes:float -> unit
(** Move [bytes] over the segment, blocking the calling process for the
    contention-dependent transfer time. *)

type fileserver = {
  disk : Sync.resource;
  seek_seconds : float;
  disk_bytes_per_sec : float;
  mutable brownout : float -> float;
      (** fault plan: disk service-time factor at a simulated time *)
  mutable trace : Trace.t;
      (** span sink for disk operations ({!Trace.none} = no recording) *)
}
(** One FCFS disk with a per-request seek. *)

val fileserver :
  ?seek_seconds:float -> ?disk_bytes_per_sec:float -> unit -> fileserver

val disk_io : Des.t -> fileserver -> bytes:float -> unit
(** One disk operation (queued FCFS behind other requests). *)

val cached : ethernet -> client:int -> file:string -> bool
(** Whether [client] already fetched [file] over this segment (and so
    holds its bytes locally).  The basis of the locality-aware
    re-dispatch: a retry placed on such a station can skip the
    re-download. *)

val fetch :
  ?client:int -> ?file:string -> Des.t -> fileserver -> ethernet ->
  bytes:float -> unit
(** Read a file from the server to a diskless client: disk, then wire.
    With both [client] and [file], the pair is added to the transfer
    history (see {!cached}); timing is unaffected either way. *)

val store : Des.t -> fileserver -> ethernet -> bytes:float -> unit
(** Write a file from a client onto the server: wire, then disk. *)
