(** Content-addressed compile cache on the simulated file server:
    function-level memoization of phase-2/3 artifacts.

    One {!t} persists across simulated runs (that is the point: a cold
    run populates it, a warm run hits it).  Keys come from
    {!Analysis.Depan.cache_keys} — salted with the optimization
    configuration and closed over the dependence ancestry — so
    invalidation is purely content-addressed: an edit changes the keys
    of exactly the edited function and its transitive [Plan.edges]
    dependents, and changed keys simply miss.

    This module is bookkeeping only.  The simulated costs of consulting
    and populating the store are charged by {!Parrun}/{!Seqrun} through
    {!Netsim.Net} at the simulated moment they occur (a {!publish}
    writes through the runner's own [store]); nothing else here
    touches the event schedule, so a configuration whose
    {!Config.t.cache} is [None] is bit-identical to a build without the
    cache. *)

type entry = { e_bytes : float  (** artifact payload bytes on the server *) }

type lookup =
  | Hit of entry  (** the key is durable: skip phase 2/3, transfer the
                      artifact (free when the station's local byte
                      cache already holds it — {!Netsim.Net.cached}) *)
  | Miss of { stale : bool }
      (** no durable artifact under this key.  [stale] means the same
          function previously published a {e different} key — a
          dependency-aware invalidation (the function or an ancestor
          was edited), counted separately from cold misses *)

type t

val create : unit -> t
(** An empty store. *)

val meta_bytes : float
(** Bytes of one content-index record: fetched (on top of the payload)
    by a remote hit, written (on top of the payload copy) by each
    population. *)

val owner : modul:string -> Driver.Compile.func_work -> string
(** The stable identity of a function across edits (module, section,
    name) — what attributes a miss to invalidation rather than cold
    start. *)

val artifact_bytes : Driver.Compile.func_work -> float
(** Payload size of one function's phase-2/3 artifact: its code in wide
    instructions, 16 bytes each — the same accounting the runners use
    for output write-back. *)

val find : t -> owner:string -> key:string -> lookup
(** Consult the index.  Pure bookkeeping: callers charge the simulated
    lookup/transfer costs themselves. *)

val populate : t -> owner:string -> key:string -> bytes:float -> bool
(** Publish a durable artifact under [key], recording [owner] as its
    publisher.  Returns [false] (and stores nothing) when the key is
    already durable, so the per-key store count stays at one; callers
    must only invoke this from a durable publication site (winning
    write-back, speculative commit, sequential fallback) — never for a
    superseded straggler or a quarantined speculative artifact. *)

val publish :
  t ->
  modul:string ->
  record:(Timings.event -> unit) ->
  store:(float -> unit) ->
  Driver.Compile.func_work list ->
  unit
(** Durable publication of the functions' artifacts, the one fold both
    runners call: {!populate} every keyed function, [record] a
    [Cache_store] for each newly stored key, then [store] the new
    payload and index bytes in one write (no write when nothing was
    new).  The same discipline as {!populate}: call it only from a
    durable publication site. *)

val mem : t -> string -> bool
val size : t -> int
(** Durable artifacts currently stored. *)

val store_count : t -> string -> int
(** How many times [populate] actually stored the key — the
    exactly-once discipline makes this 0 or 1; the chaos tests assert
    it. *)

val entries : t -> (string * float) list
(** (key, payload bytes) of every durable artifact, sorted by key —
    lets tests compare cold-run and warm-run artifact bytes for
    identity. *)
