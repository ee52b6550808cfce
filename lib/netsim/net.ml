(* Network models: a shared Ethernet segment and an NFS-style file
   server — the host environment of section 3.3 of the paper (diskless
   workstations sharing one file system over a 10 Mbit/s Ethernet).

   Ethernet transfers proceed in chunks; each chunk's effective rate is
   divided by a contention factor that grows with the number of
   concurrent transfers (collisions and exponential backoff).  The file
   server is a FCFS disk with a per-request seek time. *)

type ethernet = {
  bytes_per_sec : float;
  contention_alpha : float; (* extra cost per concurrent transfer *)
  mutable active : int;
  mutable degrade : float -> float; (* fault plan: time -> factor (>= 1) *)
  mutable trace : Trace.t; (* span sink; [Trace.none] = no recording *)
  fetched : (int * string, unit) Hashtbl.t;
      (* transfer history: (client station, file label) pairs already
         fetched over this segment.  Pure bookkeeping — recording never
         touches the event schedule; consulting it is the caller's
         policy decision (locality-aware re-dispatch). *)
}

(* Transfers move 16 KiB at a time; each chunk sees the contention of
   its own moment. *)
let chunk_bytes = 16384.0

let ethernet ?(bytes_per_sec = 1.25e6) ?(contention_alpha = 0.6) () =
  {
    bytes_per_sec;
    contention_alpha;
    active = 0;
    degrade = (fun _ -> 1.0);
    trace = Trace.none;
    fetched = Hashtbl.create 64;
  }

(* Has [client] already fetched [file] over this segment (and so holds
   its bytes in local memory)?  Stations leave the pool when they crash
   or are reclaimed, so stale entries are harmless: nobody can claim
   the dead station the entry describes. *)
let cached (e : ethernet) ~client ~file = Hashtbl.mem e.fetched (client, file)

(* Move [bytes] over the segment; blocks the calling process for the
   (contention-dependent) transfer time. *)
let transfer sim (e : ethernet) ~bytes =
  if bytes < 0.0 then invalid_arg "Net.transfer: negative size";
  let t0 = Des.now sim in
  let concurrent = e.active in
  e.active <- e.active + 1;
  let remaining = ref bytes in
  while !remaining > 0.0 do
    let chunk = min chunk_bytes !remaining in
    let factor =
      (1.0 +. (e.contention_alpha *. float_of_int (e.active - 1)))
      *. max 1.0 (e.degrade (Des.now sim))
    in
    Des.delay sim (chunk /. e.bytes_per_sec *. factor);
    remaining := !remaining -. chunk
  done;
  e.active <- e.active - 1;
  if Trace.enabled e.trace then
    Trace.span e.trace ~track:Trace.ether_track ~cat:"net" ~name:"transfer"
      ~args:
        [ ("bytes", Trace.farg bytes); ("concurrent", string_of_int concurrent) ]
      ~t0 ~t1:(Des.now sim) ()

type fileserver = {
  disk : Sync.resource;
  seek_seconds : float;
  disk_bytes_per_sec : float;
  mutable brownout : float -> float; (* fault plan: time -> factor (>= 1) *)
  mutable trace : Trace.t; (* span sink; [Trace.none] = no recording *)
}

let fileserver ?(seek_seconds = 0.025) ?(disk_bytes_per_sec = 2.0e6) () =
  {
    disk = Sync.resource 1;
    seek_seconds;
    disk_bytes_per_sec;
    brownout = (fun _ -> 1.0);
    trace = Trace.none;
  }

(* One file-server disk operation (read or write) of [bytes].  The
   traced span covers queueing behind other requests plus service. *)
let disk_io sim (fs : fileserver) ~bytes =
  let t0 = Des.now sim in
  let service = fs.seek_seconds +. (bytes /. fs.disk_bytes_per_sec) in
  Sync.use sim fs.disk (service *. max 1.0 (fs.brownout (Des.now sim)));
  if Trace.enabled fs.trace then
    Trace.span fs.trace ~track:Trace.fs_track ~cat:"net" ~name:"disk"
      ~args:[ ("bytes", Trace.farg bytes) ]
      ~t0 ~t1:(Des.now sim) ()

(* Fetch a file from the server to a diskless client: disk read, then
   the transfer over the shared segment.  When the caller identifies
   itself and the file, the pair is remembered in the transfer history
   (an O(1) table insert with no effect on the event schedule). *)
let fetch ?client ?file sim (fs : fileserver) (e : ethernet) ~bytes =
  disk_io sim fs ~bytes;
  transfer sim e ~bytes;
  match (client, file) with
  | Some c, Some f -> Hashtbl.replace e.fetched (c, f) ()
  | _ -> ()

(* Store a file from a client onto the server. *)
let store sim (fs : fileserver) (e : ethernet) ~bytes =
  transfer sim e ~bytes;
  disk_io sim fs ~bytes
