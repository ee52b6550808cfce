(* Discrete-event simulation engine with lightweight processes.

   Processes are ordinary OCaml functions running under an effect
   handler; [delay] suspends a process for simulated time, [suspend]
   parks it until an explicit wake-up.  Events at equal times fire in
   creation order, so simulations are deterministic.

   The engine knows nothing about networks or workstations — those are
   built on top in [Sync], [Net] and [Host]. *)

type event = { time : float; seq : int; action : unit -> unit }

module Pq = struct
  (* Simple binary heap keyed by (time, seq). *)
  type t = { mutable data : event array; mutable size : int }

  let create () = { data = Array.make 64 { time = 0.0; seq = 0; action = ignore }; size = 0 }
  let lt a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

  let push h e =
    if h.size = Array.length h.data then begin
      let bigger = Array.make (2 * h.size) e in
      Array.blit h.data 0 bigger 0 h.size;
      h.data <- bigger
    end;
    h.data.(h.size) <- e;
    h.size <- h.size + 1;
    let i = ref (h.size - 1) in
    while !i > 0 && lt h.data.(!i) h.data.((!i - 1) / 2) do
      let p = (!i - 1) / 2 in
      let tmp = h.data.(p) in
      h.data.(p) <- h.data.(!i);
      h.data.(!i) <- tmp;
      i := p
    done

  let pop h =
    if h.size = 0 then None
    else begin
      let top = h.data.(0) in
      h.size <- h.size - 1;
      h.data.(0) <- h.data.(h.size);
      let i = ref 0 in
      let continue_ = ref true in
      while !continue_ do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let smallest = ref !i in
        if l < h.size && lt h.data.(l) h.data.(!smallest) then smallest := l;
        if r < h.size && lt h.data.(r) h.data.(!smallest) then smallest := r;
        if !smallest <> !i then begin
          let tmp = h.data.(!smallest) in
          h.data.(!smallest) <- h.data.(!i);
          h.data.(!i) <- tmp;
          i := !smallest
        end
        else continue_ := false
      done;
      Some top
    end
end

type t = {
  mutable now : float;
  mutable seq : int;
  queue : Pq.t;
}

let create () = { now = 0.0; seq = 0; queue = Pq.create () }
let now sim = sim.now

let schedule sim ~at action =
  if at < sim.now then invalid_arg "Des.schedule: time in the past";
  sim.seq <- sim.seq + 1;
  Pq.push sim.queue { time = at; seq = sim.seq; action }

(* --- process effects --- *)

type _ Effect.t +=
  | Delay : float -> unit Effect.t
  | Suspend : (('a -> unit) -> unit) -> 'a Effect.t

(* With no event due by the wake-up time, the wake-up would fire next:
   resume in place instead of through the queue. *)
let delay sim dt =
  if dt < 0.0 then invalid_arg "Des.delay: negative delay";
  let at = sim.now +. dt in
  if sim.queue.Pq.size = 0 || sim.queue.Pq.data.(0).time > at then sim.now <- at
  else Effect.perform (Delay dt)

(* [suspend register] parks the caller; [register] receives a [wake]
   function that resumes it (with a value) at the simulation time at
   which it is called.  [wake] must be called exactly once. *)
let suspend register = Effect.perform (Suspend register)

exception Dead_process of string

let spawn sim (body : unit -> unit) : unit =
  let run () =
    Effect.Deep.try_with body ()
      {
        Effect.Deep.effc =
          (fun (type a) (eff : a Effect.t) ->
            match eff with
            | Delay dt ->
              Some
                (fun (k : (a, _) Effect.Deep.continuation) ->
                  schedule sim ~at:(sim.now +. dt) (fun () ->
                      Effect.Deep.continue k ()))
            | Suspend register ->
              Some
                (fun (k : (a, _) Effect.Deep.continuation) ->
                  let woken = ref false in
                  register (fun v ->
                      if !woken then raise (Dead_process "double wake");
                      woken := true;
                      schedule sim ~at:sim.now (fun () -> Effect.Deep.continue k v)))
            | _ -> None);
      }
  in
  schedule sim ~at:sim.now run

(* Run until the event queue drains.  Returns the final simulation
   time. *)
let run sim : float =
  let rec loop () =
    match Pq.pop sim.queue with
    | None -> ()
    | Some e ->
      sim.now <- e.time;
      e.action ();
      loop ()
  in
  loop ();
  sim.now
