(* DES-timestamped span tracing for the simulated host.

   A [Trace.t] collects typed spans (an interval on one track) and
   instants (a point event) emitted by the netsim layers and the
   compilation runners.  Timestamps are simulated seconds from the DES
   clock, passed in by the caller — the trace never consults a clock of
   its own, so recording has zero effect on the event schedule.

   Tracks are small integers: workstation ids directly, plus two
   well-known tracks for the shared Ethernet segment and the file
   server.  The disabled sink [none] makes every emit a constant-time
   no-op, so untraced runs cost nothing; callers that would build
   expensive argument lists guard on [enabled].

   Exporters: Chrome trace-event JSON (loadable in chrome://tracing or
   Perfetto, one thread per track) and an ASCII Gantt timeline rendered
   through [Stats.Table]. *)

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

type t = {
  enabled : bool;
  mutable rev_spans : span list; (* newest first *)
  mutable n_spans : int;
  mutable rev_instants : instant list;
  mutable n_instants : int;
}

let create () =
  { enabled = true; rev_spans = []; n_spans = 0; rev_instants = []; n_instants = 0 }

(* The shared no-op sink.  All emits drop their event immediately. *)
let none =
  { enabled = false; rev_spans = []; n_spans = 0; rev_instants = []; n_instants = 0 }

let enabled t = t.enabled

(* --- well-known tracks --- *)

let ether_track = 900
let fs_track = 901

let track_name = function
  | 900 -> "ethernet"
  | 901 -> "file server"
  | 0 -> "station 0 (master)"
  | n -> Printf.sprintf "station %d" n

(* --- emission --- *)

let span t ~track ~cat ~name ?(args = []) ~t0 ~t1 () =
  if t.enabled then begin
    if t1 < t0 then invalid_arg "Trace.span: negative duration";
    t.rev_spans <- { track; cat; name; t0; t1; args } :: t.rev_spans;
    t.n_spans <- t.n_spans + 1
  end

let instant t ~track ~cat ~name ?(args = []) ~at () =
  if t.enabled then begin
    t.rev_instants <- { i_track = track; i_cat = cat; i_name = name; at; i_args = args }
                      :: t.rev_instants;
    t.n_instants <- t.n_instants + 1
  end

(* Floats in args round-trip exactly through %.17g, so metric
   derivations can reproduce accumulated sums bit for bit. *)
let farg v = Printf.sprintf "%.17g" v

let arg_float s (args : (string * string) list) =
  Option.bind (List.assoc_opt s args) float_of_string_opt

(* --- reading back --- *)

let spans t = List.rev t.rev_spans
let instants t = List.rev t.rev_instants
let span_count t = t.n_spans
let instant_count t = t.n_instants

let clear t =
  t.rev_spans <- [];
  t.n_spans <- 0;
  t.rev_instants <- [];
  t.n_instants <- 0

(* Last span end: the traced run's elapsed time.  Fault-plan spans and
   instants may extend past the useful run, so only non-fault spans
   count. *)
let end_time t =
  List.fold_left
    (fun acc (s : span) -> if s.cat = "fault" then acc else Float.max acc s.t1)
    0.0 t.rev_spans

let used_tracks t =
  let add set track = if List.mem track set then set else track :: set in
  let set = List.fold_left (fun set (s : span) -> add set s.track) [] t.rev_spans in
  let set =
    List.fold_left (fun set (i : instant) -> add set i.i_track) set t.rev_instants
  in
  List.sort compare set

(* --- Chrome trace-event JSON --- *)

(* Args that print back as themselves as an integer or a [farg] float
   become JSON numbers, so Perfetto can aggregate them. *)
let arg_value v : Stats.Json.t =
  match int_of_string_opt v with
  | Some n when string_of_int n = v -> Int n
  | _ -> (
    match float_of_string_opt v with
    | Some f when Float.is_finite f && farg f = v -> Exact f
    | _ -> Str v)

(* Micro-seconds: the unit of the Chrome trace-event format. *)
let usec t = t *. 1e6

(* Step function of concurrent selected spans over time: +1/-1 edges,
   -1 applying before +1 at equal times (touching intervals do not
   overlap), equal-time runs collapsed to their final value. *)
let counter_points t select =
  let edges =
    List.concat_map
      (fun (s : span) ->
        if select s && s.t1 > s.t0 then [ (s.t0, 1); (s.t1, -1) ] else [])
      (spans t)
    |> List.sort (fun (a, da) (b, db) -> compare (a, da) (b, db))
  in
  let depth = ref 0 in
  let points = List.map (fun (at, d) -> depth := !depth + d; (at, !depth)) edges in
  let rec squash = function
    | (t1, _) :: ((t2, _) :: _ as rest) when t1 = t2 -> squash rest
    | p :: rest -> p :: squash rest
    | [] -> []
  in
  squash points

let to_chrome_json ?(flows = []) t =
  let open Stats.Json in
  let ts t = Fixed (3, usec t) in
  let args kvs = Obj (List.map (fun (k, v) -> (k, arg_value v)) kvs) in
  let event ph fields = Obj (("ph", Str ph) :: fields) in
  let meta name tid arg =
    event "M" [ ("name", Str name); ("pid", Int 0); ("tid", Int tid); ("args", Obj [ arg ]) ]
  in
  let tracks =
    List.concat
      (List.mapi
         (fun i track ->
           [ meta "thread_name" track ("name", Str (track_name track));
             meta "thread_sort_index" track ("sort_index", Int i) ])
         (used_tracks t))
  in
  let span (s : span) =
    event "X"
      [ ("name", Str s.name); ("cat", Str s.cat); ("ts", ts s.t0);
        ("dur", ts (s.t1 -. s.t0)); ("pid", Int 0); ("tid", Int s.track);
        ("args", args s.args) ]
  in
  let instant (i : instant) =
    event "i"
      [ ("s", Str "t"); ("name", Str i.i_name); ("cat", Str i.i_cat);
        ("ts", ts i.at); ("pid", Int 0); ("tid", Int i.i_track);
        ("args", args i.i_args) ]
  in
  (* Perfetto counter tracks: cluster-wide time series derived from the
     spans, so bottleneck shifts are visible at a glance. *)
  let counter (name, key, select) =
    List.map
      (fun (at, v) ->
        event "C"
          [ ("name", Str name); ("pid", Int 0); ("ts", ts at);
            ("args", Obj [ (key, Int v) ]) ])
      (counter_points t select)
  in
  (* A flow arrow: an "s"/"f" pair with a shared id, bound to the
     enclosing slices at each end. *)
  let flow i (from_track, from_t, to_track, to_t) =
    let hop bp track at =
      bp
      @ [ ("id", Int i); ("name", Str "critical-path"); ("cat", Str "critpath");
          ("pid", Int 0); ("tid", Int track); ("ts", ts at) ]
    in
    [ event "s" (hop [] from_track from_t);
      event "f" (hop [ ("bp", Str "e") ] to_track to_t) ]
  in
  to_string
    (Obj
       [ ("displayTimeUnit", Str "ms");
         ( "traceEvents",
           List
             ((meta "process_name" 0 ("name", Str "warpcc simulated host") :: tracks)
             @ List.map span (spans t)
             @ List.map instant (instants t)
             @ List.concat_map counter
                 [ ( "stations-busy", "busy",
                     fun (s : span) -> s.cat = "cpu" && s.track < ether_track );
                   ("pool-queue-depth", "waiting", fun (s : span) -> s.cat = "pool");
                   ( "fs-in-flight", "requests",
                     fun (s : span) -> s.cat = "net" && s.track = fs_track ) ]
             @ List.concat (List.mapi flow flows)) ) ])

(* --- ASCII Gantt timeline --- *)

(* One row per track; the timeline shows, per time bucket, the dominant
   activity: CPU work (#), network transfer (~), pool/claim waiting (.),
   crash/reclaim aftermath (x), idle (space). *)
let gantt t =
  let width = 64 in
  let finish = end_time t in
  let finish = if finish <= 0.0 then 1.0 else finish in
  let bucket_len = finish /. float_of_int width in
  let tracks = used_tracks t in
  let all_spans = spans t in
  let all_instants = instants t in
  let rows =
    List.map
      (fun track ->
        let line = Bytes.make width ' ' in
        let mark_range priority ch t0 t1 =
          let b0 = max 0 (int_of_float (t0 /. bucket_len)) in
          let b1 =
            min (width - 1) (int_of_float (Float.pred (t1 /. bucket_len)))
          in
          for i = b0 to min (width - 1) (max b0 b1) do
            let cur = Bytes.get line i in
            let rank = function
              | '#' -> 4
              | '~' -> 3
              | '.' -> 2
              | 'x' -> 1
              | _ -> 0
            in
            if priority > rank cur then Bytes.set line i ch
          done
        in
        let dead_from = ref infinity in
        List.iter
          (fun (i : instant) ->
            if
              i.i_track = track && i.i_cat = "fault"
              && (i.i_name = "crash" || i.i_name = "reclaim")
            then dead_from := Float.min !dead_from i.at)
          all_instants;
        if !dead_from < finish then mark_range 1 'x' !dead_from finish;
        let busy = ref 0.0 in
        List.iter
          (fun (s : span) ->
            if s.track = track then
              match s.cat with
              | "cpu" ->
                busy := !busy +. (s.t1 -. s.t0);
                mark_range 4 '#' s.t0 s.t1
              | "net" ->
                (* Net spans live on the named infrastructure tracks
                   (ethernet / file server); their busy column counts
                   transfer/disk seconds instead of CPU. *)
                busy := !busy +. (s.t1 -. s.t0);
                mark_range 3 '~' s.t0 s.t1
              | "pool" -> mark_range 2 '.' s.t0 s.t1
              | _ -> ())
          all_spans;
        (track, !busy, Bytes.to_string line))
      tracks
  in
  let table =
    Stats.Table.make
      ~title:
        (Printf.sprintf
           "Gantt timeline, 0 .. %.1fs ('#' cpu, '~' network, '.' pool wait, \
            'x' dead)"
           finish)
      ~columns:[ "track"; "busy s"; "timeline" ]
  in
  List.fold_left
    (fun table (track, busy, line) ->
      Stats.Table.add_row table
        [ track_name track; Printf.sprintf "%.1f" busy; line ])
    table rows
