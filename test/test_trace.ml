(* Tests for the observability layer: the span store, the derived
   metrics, the exporters, and the trace-derived views that must agree
   with the Timings bookkeeping — including the acceptance bar that
   tracing (enabled or not) never moves a simulated timing by a bit. *)

open Parallel_cc

let work count = Experiment.s_program_work ~size:W2.Gen.Tiny ~count ()

(* One parallel run of a [count]-function Tiny module with a fresh
   trace wired in (pool: one station per task plus the master's). *)
let traced_run ?(faults = Netsim.Fault.none)
    ?(budget = Config.default.Config.retry_budget) count =
  let mw = work count in
  let plan = Plan.one_per_station mw in
  let tr = Trace.create () in
  let cfg =
    {
      Config.default with
      Config.stations = count + 1;
      noise_seed = 0;
      faults;
      retry_budget = budget;
      trace = tr;
    }
  in
  let o = Parrun.run cfg mw plan in
  (tr, o.Parrun.run)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* --- span store --- *)

let test_span_store () =
  let tr = Trace.create () in
  Alcotest.(check bool) "enabled" true (Trace.enabled tr);
  Trace.span tr ~track:1 ~cat:"cpu" ~name:"a" ~t0:0.0 ~t1:2.0 ();
  Trace.span tr ~track:2 ~cat:"net" ~name:"b"
    ~args:[ ("bytes", "10") ]
    ~t0:1.0 ~t1:3.0 ();
  Trace.instant tr ~track:1 ~cat:"task" ~name:"retry" ~at:2.5 ();
  Alcotest.(check int) "2 spans" 2 (Trace.span_count tr);
  Alcotest.(check int) "1 instant" 1 (Trace.instant_count tr);
  (match Trace.spans tr with
  | [ a; b ] ->
    Alcotest.(check string) "emission order (first)" "a" a.Trace.name;
    Alcotest.(check string) "emission order (second)" "b" b.Trace.name
  | _ -> Alcotest.fail "expected exactly 2 spans");
  Alcotest.(check (float 0.0)) "end time" 3.0 (Trace.end_time tr);
  Alcotest.(check (list int)) "used tracks" [ 1; 2 ] (Trace.used_tracks tr);
  Trace.clear tr;
  Alcotest.(check int) "cleared spans" 0 (Trace.span_count tr);
  Alcotest.(check int) "cleared instants" 0 (Trace.instant_count tr)

let test_span_negative_duration () =
  let tr = Trace.create () in
  Alcotest.check_raises "negative duration"
    (Invalid_argument "Trace.span: negative duration") (fun () ->
      Trace.span tr ~track:0 ~cat:"cpu" ~name:"bad" ~t0:2.0 ~t1:1.0 ())

let test_end_time_ignores_fault_windows () =
  let tr = Trace.create () in
  Trace.span tr ~track:1 ~cat:"cpu" ~name:"slice" ~t0:0.0 ~t1:5.0 ();
  Trace.span tr ~track:1 ~cat:"fault" ~name:"slowdown" ~t0:0.0 ~t1:1000.0 ();
  Alcotest.(check (float 0.0)) "fault window excluded" 5.0 (Trace.end_time tr)

let test_noop_sink () =
  Alcotest.(check bool) "disabled" false (Trace.enabled Trace.none);
  Trace.span Trace.none ~track:0 ~cat:"cpu" ~name:"x" ~t0:0.0 ~t1:1.0 ();
  Trace.instant Trace.none ~track:0 ~cat:"task" ~name:"y" ~at:0.0 ();
  Alcotest.(check int) "no spans recorded" 0 (Trace.span_count Trace.none);
  Alcotest.(check int) "no instants recorded" 0 (Trace.instant_count Trace.none)

let test_farg_round_trip () =
  List.iter
    (fun v ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "%h round-trips" v)
        v
        (float_of_string (Trace.farg v)))
    [ 0.0; 1.0; 474.68423155906299; 1.0 /. 3.0; 1e-17; 123456.789; 662.6908466628729 ]

(* --- exporters --- *)

(* Brace/bracket balance; none of our span names or args contain
   braces, so this is a meaningful structural check without a parser
   (CI additionally json-parses the CLI's output). *)
let balanced s =
  let depth = ref 0 and ok = ref true in
  String.iter
    (function
      | '{' | '[' -> incr depth
      | '}' | ']' ->
        decr depth;
        if !depth < 0 then ok := false
      | _ -> ())
    s;
  !ok && !depth = 0

let test_chrome_json () =
  let tr, _ = traced_run 4 in
  let json = Trace.to_chrome_json tr in
  Alcotest.(check bool) "balanced" true (balanced json);
  List.iter
    (fun needle ->
      Alcotest.(check bool) (needle ^ " present") true (contains json needle))
    [
      "\"traceEvents\"";
      "\"displayTimeUnit\"";
      "\"ph\": \"X\"";
      "\"ph\": \"M\"";
      "thread_name";
      "station 0 (master)";
      "ethernet";
      "file server";
      "phase23";
      "write-back";
    ];
  Alcotest.(check bool) "no NaN leaks" false (contains json "nan")

let test_gantt_render () =
  let tr, _ = traced_run 4 in
  let rendered = Stats.Table.render (Trace.gantt tr) in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (needle ^ " present") true (contains rendered needle))
    [ "station 0 (master)"; "station 4"; "ethernet"; "file server"; "#" ]

(* --- metrics derived from a trace --- *)

(* A hand-built trace pins the derivation: counters accumulate over
   spans and instants, an absent counter reads 0, the elapsed gauge is
   the trace's end, and a histogram keeps count, sum, min and max. *)
let test_metrics_registry () =
  let tr = Trace.create () in
  List.iter
    (fun (t0, t1) ->
      Trace.span tr ~track:1 ~cat:"cpu" ~name:"phase23"
        ~args:
          [
            ("tag", "phase23");
            ("done", Trace.farg (t1 -. t0));
            ("actual", Trace.farg (t1 -. t0));
          ]
        ~t0 ~t1 ())
    [ (0.0, 1.0); (1.0, 3.0) ];
  List.iter
    (fun wait ->
      Trace.span tr ~track:2 ~cat:"pool" ~name:"pool-wait" ~t0:0.0 ~t1:wait ())
    [ 4.0; 1.0; 3.0; 2.0 ];
  List.iter
    (fun at -> Trace.instant tr ~track:1 ~cat:"task" ~name:"retry" ~at ())
    [ 1.0; 2.0 ];
  let m = Metrics.of_trace tr in
  Alcotest.(check (float 0.0)) "counter" 3.0 (Metrics.counter m "cpu.phase23_seconds");
  Alcotest.(check (float 0.0)) "instant counter" 2.0 (Metrics.counter m "retries");
  Alcotest.(check (float 0.0)) "absent counter" 0.0 (Metrics.counter m "nope");
  Alcotest.(check (option (float 0.0))) "gauge" (Some 4.0)
    (Metrics.gauge m "elapsed_seconds");
  match Metrics.histogram m "pool_wait_seconds" with
  | None -> Alcotest.fail "histogram missing"
  | Some h ->
    Alcotest.(check int) "count" 4 h.Metrics.h_count;
    Alcotest.(check (float 1e-12)) "mean" 2.5
      (h.Metrics.h_sum /. float_of_int h.Metrics.h_count);
    Alcotest.(check (float 0.0)) "min" 1.0 h.Metrics.h_min;
    Alcotest.(check (float 0.0)) "max" 4.0 h.Metrics.h_max

(* The pool-queue depth is the peak of [Trace.counter_points] over the
   pool-wait spans. *)
let test_max_overlap () =
  let max_overlap intervals =
    let tr = Trace.create () in
    List.iter
      (fun (t0, t1) -> Trace.span tr ~track:1 ~cat:"pool" ~name:"pool-wait" ~t0 ~t1 ())
      intervals;
    List.fold_left
      (fun best (_, depth) -> max best depth)
      0
      (Trace.counter_points tr (fun s -> s.Trace.cat = "pool"))
  in
  Alcotest.(check int) "empty" 0 (max_overlap []);
  Alcotest.(check int) "disjoint" 1 (max_overlap [ (0.0, 1.0); (2.0, 3.0) ]);
  Alcotest.(check int) "nested" 3
    (max_overlap [ (0.0, 10.0); (1.0, 5.0); (2.0, 3.0) ]);
  Alcotest.(check int) "touching intervals do not overlap" 1
    (max_overlap [ (0.0, 1.0); (1.0, 2.0) ])

let test_metrics_of_trace () =
  let tr, run = traced_run 4 in
  let m = Metrics.of_trace tr in
  Alcotest.(check (float 0.0)) "spans counter"
    (float_of_int (Trace.span_count tr))
    (Metrics.counter m "spans");
  Alcotest.(check bool) "cpu accounted" true (Metrics.counter m "cpu_seconds" > 0.0);
  Alcotest.(check bool) "phase 2+3 dominates startup" true
    (Metrics.counter m "cpu.phase23_seconds" > Metrics.counter m "cpu.sched_seconds");
  Alcotest.(check bool) "ether traffic" true (Metrics.counter m "ether_bytes" > 0.0);
  Alcotest.(check bool) "fs traffic" true (Metrics.counter m "fs_requests" > 0.0);
  (* The latest non-fault span ends exactly when the master reports. *)
  Alcotest.(check (option (float 0.0))) "elapsed gauge"
    (Some run.Timings.elapsed)
    (Metrics.gauge m "elapsed_seconds");
  Alcotest.(check (float 0.0)) "no fallbacks" 0.0 (Metrics.counter m "fallback_tasks");
  Alcotest.(check (option (float 0.0))) "no stations lost" (Some 0.0)
    (Metrics.gauge m "stations_lost");
  match Metrics.histogram m "cpu_slowdown_factor" with
  | None -> Alcotest.fail "slowdown histogram missing"
  | Some h ->
    Alcotest.(check bool) "slowdowns never speed up" true (h.Metrics.h_min >= 1.0)

(* --- task-lifecycle chains (4-function module) --- *)

let test_lifecycle_chains () =
  let mw = work 4 in
  let tr, _ = traced_run 4 in
  let spans = Trace.spans tr in
  List.iter
    (fun (fw : Driver.Compile.func_work) ->
      let name = fw.Driver.Compile.fw_name in
      let stages =
        List.filter
          (fun (s : Trace.span) ->
            s.Trace.cat = "task" && List.assoc_opt "task" s.Trace.args = Some name)
          spans
      in
      let stage n =
        match List.find_opt (fun (s : Trace.span) -> s.Trace.name = n) stages with
        | Some s -> s
        | None -> Alcotest.fail (Printf.sprintf "%s: missing %s span" name n)
      in
      let chain = [ "claim"; "transfer"; "parse"; "phase23"; "write-back" ] in
      (* Complete, ordered, and on a single station's track. *)
      ignore (List.map stage chain);
      let rec ordered = function
        | a :: (b :: _ as rest) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: %s before %s" name a b)
            true
            ((stage a).Trace.t1 <= (stage b).Trace.t0 +. 1e-9);
          ordered rest
        | _ -> ()
      in
      ordered chain;
      List.iter
        (fun n ->
          Alcotest.(check int)
            (Printf.sprintf "%s: %s on the claimed station" name n)
            (stage "claim").Trace.track (stage n).Trace.track)
        chain)
    (Driver.Compile.all_funcs mw)

(* --- faults: recovery events in the trace, derived counters agree --- *)

let test_fault_trace () =
  let _, free = traced_run 4 in
  (* Every pool station dies early under a one-retry budget: the run
     must retry, lose attempts, waste CPU and fall back — exercising
     every recovery event the trace records. *)
  let faults =
    {
      Netsim.Fault.events =
        List.map
          (fun s ->
            Netsim.Fault.Crash
              { station = s; at = (0.05 *. free.Timings.elapsed) +. float_of_int s })
          [ 1; 2; 3; 4 ];
    }
  in
  let tr, run = traced_run ~faults ~budget:1 4 in
  Alcotest.(check bool) "crashes forced a retry" true (run.Timings.retries >= 1);
  Alcotest.(check bool) "budget exhaustion forced a fallback" true
    (run.Timings.fallback_tasks >= 1);
  let instants = Trace.instants tr in
  let count name =
    List.length
      (List.filter
         (fun (i : Trace.instant) -> i.Trace.i_cat = "task" && i.Trace.i_name = name)
         instants)
  in
  Alcotest.(check int) "retry instants" run.Timings.retries (count "retry");
  (* Which loss signal fires depends on where the attempt was when its
     station died: mid-compute raises [Lost] ("attempt-lost"), while an
     attempt parked in a pool claim or a network fetch is only ever
     reclaimed by the master's watchdog ("timeout").  Either way the
     trace must carry at least one loss signal. *)
  Alcotest.(check bool) "loss signal traced (timeout or attempt-lost)" true
    (count "attempt-lost" + count "timeout" >= 1);
  Alcotest.(check bool) "crash instant traced" true
    (List.exists
       (fun (i : Trace.instant) ->
         i.Trace.i_cat = "fault" && i.Trace.i_name = "crash"
         && i.Trace.i_track = 2)
       instants);
  Alcotest.(check bool) "fallback span traced" true
    (List.exists
       (fun (s : Trace.span) -> s.Trace.cat = "task" && s.Trace.name = "fallback")
       (Trace.spans tr));
  Alcotest.(check bool) "wasted instants carry CPU" true
    (List.exists
       (fun (i : Trace.instant) ->
         i.Trace.i_name = "wasted"
         && (match Trace.arg_float "cpu" i.Trace.i_args with
            | Some v -> v > 0.0
            | None -> false))
       instants);
  let m = Metrics.of_trace tr in
  Alcotest.(check (float 0.0)) "retries derived"
    (float_of_int run.Timings.retries)
    (Metrics.counter m "retries");
  Alcotest.(check (float 0.0)) "fallbacks derived"
    (float_of_int run.Timings.fallback_tasks)
    (Metrics.counter m "fallback_tasks");
  Alcotest.(check (float 0.0)) "wasted CPU derived" run.Timings.wasted_cpu
    (Metrics.counter m "wasted_cpu_seconds");
  Alcotest.(check (option (float 0.0))) "stations lost derived"
    (Some (float_of_int run.Timings.stations_lost))
    (Metrics.gauge m "stations_lost")

(* --- tracing must not move the simulation --- *)

let test_tracing_leaves_timings_unchanged () =
  let mw = work 4 in
  let plan = Plan.one_per_station mw in
  let run trace =
    (Parrun.run
       { Config.default with Config.stations = 5; noise_seed = 3; trace }
       mw plan)
      .Parrun.run
  in
  let plain = run Trace.none in
  let traced = run (Trace.create ()) in
  Alcotest.(check (float 0.0)) "elapsed bit-identical" plain.Timings.elapsed
    traced.Timings.elapsed;
  Alcotest.(check (float 0.0)) "master CPU bit-identical" plain.Timings.master_cpu
    traced.Timings.master_cpu;
  Alcotest.(check (list (float 0.0))) "per-station CPU bit-identical"
    plain.Timings.cpu_per_station traced.Timings.cpu_per_station

(* Golden pre-observability speedups, captured before this layer was
   wired in: with tracing disabled the full measurement pipeline must
   reproduce them bit for bit. *)
let test_golden_speedups () =
  let case name size count ~speedup ~seq ~par =
    let mw = Experiment.s_program_work ~size ~count () in
    let c = Experiment.measure mw in
    Alcotest.(check (float 0.0)) (name ^ " seq elapsed") seq
      c.Timings.seq.Timings.elapsed;
    Alcotest.(check (float 0.0)) (name ^ " par elapsed") par
      c.Timings.par.Timings.elapsed;
    Alcotest.(check (float 0.0)) (name ^ " speedup") speedup c.Timings.speedup
  in
  case "small4" W2.Gen.Small 4 ~speedup:2.6328007896237846
    ~seq:474.68423155906299 ~par:180.29629641173619;
  case "medium2" W2.Gen.Medium 2 ~speedup:1.8241640057736108
    ~seq:1208.8567894380519 ~par:662.6908466628729

let suites =
  [
    ( "trace.store",
      [
        Alcotest.test_case "span store" `Quick test_span_store;
        Alcotest.test_case "negative duration" `Quick test_span_negative_duration;
        Alcotest.test_case "end time skips fault windows" `Quick
          test_end_time_ignores_fault_windows;
        Alcotest.test_case "no-op sink" `Quick test_noop_sink;
        Alcotest.test_case "farg round-trip" `Quick test_farg_round_trip;
      ] );
    ( "trace.export",
      [
        Alcotest.test_case "chrome json" `Quick test_chrome_json;
        Alcotest.test_case "gantt render" `Quick test_gantt_render;
      ] );
    ( "trace.metrics",
      [
        Alcotest.test_case "registry" `Quick test_metrics_registry;
        Alcotest.test_case "max overlap" `Quick test_max_overlap;
        Alcotest.test_case "derivation" `Quick test_metrics_of_trace;
      ] );
    ( "trace.runs",
      [
        Alcotest.test_case "lifecycle chains" `Quick test_lifecycle_chains;
        Alcotest.test_case "fault recovery traced" `Quick test_fault_trace;
        Alcotest.test_case "tracing leaves timings unchanged" `Quick
          test_tracing_leaves_timings_unchanged;
        Alcotest.test_case "golden speedups" `Slow test_golden_speedups;
      ] );
  ]
