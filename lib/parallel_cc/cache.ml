(* Content-addressed compile cache: the store half of function-level
   memoization (ROADMAP item 1, the parasolc/ACL2 lesson that skipping
   redundant work beats adding CPUs).

   The store lives on the simulated file server and survives across
   simulated runs — that is the whole point: a cold run populates it,
   a warm re-run of the same module hits it, an edited module hits it
   everywhere except the edited function and its transitive dependents.
   The keys ([Analysis.Depan.cache_keys]) are content-addressed and
   closed over the dependence ancestry, so invalidation needs no
   bookkeeping here: a changed input produces a different key, which
   simply misses.

   What this module itself holds is pure bookkeeping — which keys are
   durable, how many payload bytes each artifact occupies, and which
   key each function name last published.  The simulated COSTS of
   consulting or populating the store (index fetches, artifact
   transfers, store writes) are charged by the runners through
   [Netsim.Net] at the simulated moment they happen; nothing in here
   touches the event schedule except through the [store] a runner
   hands to [publish].

   Population discipline (exactly-once): only a durable publication may
   populate — the winning attempt's write-back, a speculative commit,
   or the master's sequential fallback.  Superseded stragglers and
   quarantined speculative artifacts never reach [populate], so a key
   is stored at most once; [populate] additionally refuses to re-add a
   key that is already durable (a fallback republishing a task after a
   partial failure), keeping the per-key store count at exactly one. *)

type entry = { e_bytes : float }

type lookup = Hit of entry | Miss of { stale : bool }

type t = {
  entries : (string, entry) Hashtbl.t; (* durable artifacts by key *)
  owners : (string, string) Hashtbl.t; (* function identity -> the key
                                          it last published (stale-miss
                                          attribution only) *)
  store_log : (string, int) Hashtbl.t; (* key -> times populated *)
}

(* Bytes of one content-index record (key, payload pointer, salt tag):
   what a hit fetches in addition to the artifact payload, and what a
   population writes in addition to the payload copy. *)
let meta_bytes = 160.0

let create () =
  {
    entries = Hashtbl.create 64;
    owners = Hashtbl.create 64;
    store_log = Hashtbl.create 64;
  }

let owner ~modul (fw : Driver.Compile.func_work) =
  String.concat "/"
    [ modul; fw.Driver.Compile.fw_section; fw.Driver.Compile.fw_name ]

let artifact_bytes (fw : Driver.Compile.func_work) =
  16.0 *. float_of_int fw.Driver.Compile.fw_wides

let find (t : t) ~owner ~key : lookup =
  match Hashtbl.find_opt t.entries key with
  | Some e -> Hit e
  | None ->
    let stale =
      match Hashtbl.find_opt t.owners owner with
      | Some previous -> previous <> key
      | None -> false
    in
    Miss { stale }

let populate (t : t) ~owner ~key ~bytes : bool =
  Hashtbl.replace t.owners owner key;
  if Hashtbl.mem t.entries key then false
  else begin
    Hashtbl.replace t.entries key { e_bytes = bytes };
    Hashtbl.replace t.store_log key
      (1 + Option.value ~default:0 (Hashtbl.find_opt t.store_log key));
    true
  end

(* The publication fold both runners share: newly stored artifacts are
   recorded one by one and written in one store of payload+index
   bytes. *)
let publish (t : t) ~modul ~record ~store funcs =
  let stored =
    List.fold_left
      (fun acc (fw : Driver.Compile.func_work) ->
        match fw.Driver.Compile.fw_key with
        | None -> acc
        | Some key ->
          let bytes = artifact_bytes fw in
          if populate t ~owner:(owner ~modul fw) ~key ~bytes then begin
            record (Timings.Cache_store { func = fw.Driver.Compile.fw_name; key });
            acc +. bytes +. meta_bytes
          end
          else acc)
      0.0 funcs
  in
  if stored > 0.0 then store stored

let mem (t : t) key = Hashtbl.mem t.entries key
let size (t : t) = Hashtbl.length t.entries

let store_count (t : t) key =
  Option.value ~default:0 (Hashtbl.find_opt t.store_log key)

let entries (t : t) : (string * float) list =
  Hashtbl.fold (fun key e acc -> (key, e.e_bytes) :: acc) t.entries []
  |> List.sort compare
