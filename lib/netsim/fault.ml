(* Deterministic, seed-driven fault plans for the simulated host.

   A plan is a static schedule of station crashes, owner reclaims,
   transient slowdowns, file-server brownouts and Ethernet degradation.
   Because the schedule is fixed up front, every query is a pure
   function of (plan, time): same seed => same faults => same simulated
   run.  The hooks that consume these queries live in [Host] and [Net];
   the recovery protocol lives with the parallel driver.

   Station 0 is by convention the master's own workstation and is never
   faulted (neither by [random] nor by the wiring in [Host.cluster]):
   the sequential-fallback rung of the degradation ladder must always
   be able to terminate there. *)

type event =
  | Crash of { station : int; at : float }
  | Reclaim of { station : int; at : float }
  | Slowdown of { station : int; from_ : float; until : float; factor : float }
  | Fs_brownout of { from_ : float; until : float; factor : float }
  | Ether_degrade of { from_ : float; until : float; factor : float }

type plan = { events : event list }

let none = { events = [] }
let is_none p = p.events = []

(* Crashes surface as a value, never as an OCaml exception escaping the
   DES event loop. *)
type failure = { failed_station : int; failed_at : float }
type outcome = Completed | Station_failed of failure

(* --- time-indexed queries --- *)

let crash_time p ~station =
  List.fold_left
    (fun acc e ->
      match e with
      | Crash { station = s; at } when s = station -> Float.min acc at
      | _ -> acc)
    infinity p.events

let reclaim_time p ~station =
  List.fold_left
    (fun acc e ->
      match e with
      | Reclaim { station = s; at } when s = station -> Float.min acc at
      | _ -> acc)
    infinity p.events

let in_window at ~from_ ~until = at >= from_ && at < until

let station_slowdown p ~station ~at =
  List.fold_left
    (fun acc e ->
      match e with
      | Slowdown { station = s; from_; until; factor }
        when s = station && in_window at ~from_ ~until ->
        acc *. factor
      | _ -> acc)
    1.0 p.events

let fs_factor p ~at =
  List.fold_left
    (fun acc e ->
      match e with
      | Fs_brownout { from_; until; factor } when in_window at ~from_ ~until ->
        acc *. factor
      | _ -> acc)
    1.0 p.events

let ether_factor p ~at =
  List.fold_left
    (fun acc e ->
      match e with
      | Ether_degrade { from_; until; factor } when in_window at ~from_ ~until ->
        acc *. factor
      | _ -> acc)
    1.0 p.events

(* --- plan generation --- *)

(* Every random number is drawn whether or not its event fires, so with
   a fixed seed the plan at a higher rate is a superset of the plan at
   a lower rate — elapsed-time inflation is monotone in [rate]. *)
let random ~seed ~stations ~rate ~horizon () =
  if stations < 1 then invalid_arg "Fault.random: need at least one station";
  if horizon <= 0.0 then invalid_arg "Fault.random: non-positive horizon";
  let state = ref (max 1 (seed land 0x3FFFFFFF)) in
  let next () =
    state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
    float_of_int !state /. 1073741824.0
  in
  let events = ref [] in
  let push e = events := e :: !events in
  for station = 1 to stations - 1 do
    let u_crash = next () and t_crash = next () in
    let u_reclaim = next () and t_reclaim = next () in
    let u_slow = next () and t_slow = next () in
    let d_slow = next () and f_slow = next () in
    if u_crash < rate then
      push (Crash { station; at = (0.05 +. (0.8 *. t_crash)) *. horizon });
    if u_reclaim < 0.5 *. rate then
      push (Reclaim { station; at = (0.05 +. (0.8 *. t_reclaim)) *. horizon });
    if u_slow < rate then begin
      let from_ = 0.8 *. t_slow *. horizon in
      push
        (Slowdown
           {
             station;
             from_;
             until = from_ +. ((0.1 +. (0.4 *. d_slow)) *. horizon);
             factor = 2.0 +. (4.0 *. f_slow);
           })
    end
  done;
  let u_fs = next () and t_fs = next () in
  let d_fs = next () and f_fs = next () in
  let u_e = next () and t_e = next () in
  let d_e = next () and f_e = next () in
  if u_fs < 0.5 *. rate then begin
    let from_ = 0.7 *. t_fs *. horizon in
    push
      (Fs_brownout
         {
           from_;
           until = from_ +. ((0.1 +. (0.3 *. d_fs)) *. horizon);
           factor = 2.0 +. (6.0 *. f_fs);
         })
  end;
  if u_e < 0.5 *. rate then begin
    let from_ = 0.7 *. t_e *. horizon in
    push
      (Ether_degrade
         {
           from_;
           until = from_ +. ((0.1 +. (0.3 *. d_e)) *. horizon);
           factor = 2.0 +. (4.0 *. f_e);
         })
  end;
  { events = List.rev !events }

(* --- reporting --- *)

let event_to_string = function
  | Crash { station; at } -> Printf.sprintf "station %d crashes at %.1fs" station at
  | Reclaim { station; at } ->
    Printf.sprintf "station %d reclaimed by its owner at %.1fs" station at
  | Slowdown { station; from_; until; factor } ->
    Printf.sprintf "station %d slowed %.1fx during [%.1fs, %.1fs)" station factor
      from_ until
  | Fs_brownout { from_; until; factor } ->
    Printf.sprintf "file server %.1fx slower during [%.1fs, %.1fs)" factor from_ until
  | Ether_degrade { from_; until; factor } ->
    Printf.sprintf "ethernet %.1fx slower during [%.1fs, %.1fs)" factor from_ until

let describe p = List.map event_to_string p.events
