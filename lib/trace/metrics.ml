(* Metrics derived from the span store.

   Counters, gauges and histograms keyed by name, built only by
   [of_trace], which recomputes operational metrics (pool wait time,
   queue depth, per-phase CPU, paging-slowdown distribution, recovery
   counters) purely from the recorded spans — nothing is accumulated
   twice. *)

type histogram = {
  mutable h_count : int;
  mutable h_sum : float;
  mutable h_min : float;
  mutable h_max : float;
}

type t = {
  counters : (string, float ref) Hashtbl.t;
  gauges : (string, float ref) Hashtbl.t;
  histograms : (string, histogram) Hashtbl.t;
}

let create () =
  {
    counters = Hashtbl.create 16;
    gauges = Hashtbl.create 16;
    histograms = Hashtbl.create 16;
  }

let incr t name ?(by = 1.0) () =
  match Hashtbl.find_opt t.counters name with
  | Some r -> r := !r +. by
  | None -> Hashtbl.replace t.counters name (ref by)

let set_gauge t name v =
  match Hashtbl.find_opt t.gauges name with
  | Some r -> r := v
  | None -> Hashtbl.replace t.gauges name (ref v)

let observe t name v =
  let h =
    match Hashtbl.find_opt t.histograms name with
    | Some h -> h
    | None ->
      let h = { h_count = 0; h_sum = 0.0; h_min = infinity; h_max = neg_infinity } in
      Hashtbl.replace t.histograms name h;
      h
  in
  h.h_count <- h.h_count + 1;
  h.h_sum <- h.h_sum +. v;
  h.h_min <- Float.min h.h_min v;
  h.h_max <- Float.max h.h_max v

let counter t name =
  match Hashtbl.find_opt t.counters name with Some r -> !r | None -> 0.0

let gauge t name =
  Option.map (fun r -> !r) (Hashtbl.find_opt t.gauges name)

let histogram t name = Hashtbl.find_opt t.histograms name

let mean h = if h.h_count = 0 then 0.0 else h.h_sum /. float_of_int h.h_count

let names tbl = Hashtbl.fold (fun k _ acc -> k :: acc) tbl [] |> List.sort compare

let to_table t =
  let table =
    Stats.Table.make ~title:"Metrics registry"
      ~columns:[ "metric"; "kind"; "value"; "count"; "min"; "mean"; "max" ]
  in
  let table =
    List.fold_left
      (fun table name ->
        Stats.Table.add_row table
          [ name; "counter"; Printf.sprintf "%.3f" (counter t name); "-"; "-"; "-"; "-" ])
      table (names t.counters)
  in
  let table =
    List.fold_left
      (fun table name ->
        Stats.Table.add_row table
          [
            name; "gauge";
            (match gauge t name with Some v -> Printf.sprintf "%.3f" v | None -> "-");
            "-"; "-"; "-"; "-";
          ])
      table (names t.gauges)
  in
  List.fold_left
    (fun table name ->
      match histogram t name with
      | None -> table
      | Some h ->
        Stats.Table.add_row table
          [
            name; "histogram";
            Printf.sprintf "%.3f" h.h_sum;
            string_of_int h.h_count;
            Printf.sprintf "%.3f" (if h.h_count = 0 then 0.0 else h.h_min);
            Printf.sprintf "%.3f" (mean h);
            Printf.sprintf "%.3f" (if h.h_count = 0 then 0.0 else h.h_max);
          ])
    table (names t.histograms)

(* --- the standard derivation from a trace --- *)

let of_trace (tr : Trace.t) : t =
  let m = create () in
  let elapsed = Trace.end_time tr in
  set_gauge m "elapsed_seconds" elapsed;
  set_gauge m "tracks" (float_of_int (List.length (Trace.used_tracks tr)));
  incr m "spans" ~by:(float_of_int (Trace.span_count tr)) ();
  incr m "instants" ~by:(float_of_int (Trace.instant_count tr)) ();
  List.iter
    (fun (s : Trace.span) ->
      let dur = s.Trace.t1 -. s.Trace.t0 in
      match s.Trace.cat with
      | "cpu" ->
        let tag =
          match List.assoc_opt "tag" s.Trace.args with Some t -> t | None -> "cpu"
        in
        let nominal_done =
          match Trace.arg_float "done" s.Trace.args with Some v -> v | None -> 0.0
        in
        let actual =
          match Trace.arg_float "actual" s.Trace.args with Some v -> v | None -> dur
        in
        incr m (Printf.sprintf "cpu.%s_seconds" tag) ~by:actual ();
        incr m "cpu_seconds" ~by:actual ();
        if nominal_done > 0.0 then
          (* paging/GC/fault slowdown actually experienced *)
          observe m "cpu_slowdown_factor" (actual /. nominal_done)
      | "net" ->
        let bytes =
          match Trace.arg_float "bytes" s.Trace.args with Some v -> v | None -> 0.0
        in
        if s.Trace.track = Trace.ether_track then begin
          incr m "ether_transfers" ();
          incr m "ether_bytes" ~by:bytes ();
          observe m "ether_transfer_seconds" dur
        end
        else begin
          incr m "fs_requests" ();
          incr m "fs_bytes" ~by:bytes ();
          observe m "fs_request_seconds" dur
        end
      | "pool" -> observe m "pool_wait_seconds" dur
      | "task" -> (
        match s.Trace.name with
        | "fallback" -> incr m "fallback_tasks" ()
        | "spec-commit" -> incr m "spec_committed" ()
        | "spec-abort" -> incr m "spec_rolled_back" ()
        | _ -> ())
      | _ -> ())
    (Trace.spans tr);
  (* The deepest the pool-wait queue ever got. *)
  set_gauge m "max_pool_queue_depth"
    (float_of_int
       (List.fold_left
          (fun best (_, depth) -> max best depth)
          0
          (Trace.counter_points tr (fun s -> s.Trace.cat = "pool"))));
  let lost = Hashtbl.create 8 in
  List.iter
    (fun (i : Trace.instant) ->
      match (i.Trace.i_cat, i.Trace.i_name) with
      | "task", "retry" -> incr m "retries" ()
      | "task", "spec-dispatch" -> incr m "spec_dispatched" ()
      | "task", "timeout" -> incr m "timeouts" ()
      | "task", "attempt-lost" -> incr m "attempts_lost" ()
      | "task", "wasted" ->
        let cpu =
          match Trace.arg_float "cpu" i.Trace.i_args with Some v -> v | None -> 0.0
        in
        incr m "wasted_cpu_seconds" ~by:cpu ()
      | "fault", ("crash" | "reclaim") ->
        (* A station is lost only if the event fired inside the run. *)
        if i.Trace.at <= elapsed then Hashtbl.replace lost i.Trace.i_track ()
      | _ -> ())
    (Trace.instants tr);
  set_gauge m "stations_lost" (float_of_int (Hashtbl.length lost));
  m
