(* Tests for the discrete-event simulator and the host models. *)

open Netsim

let feq = Alcotest.float 1e-6

let test_delay_ordering () =
  let sim = Des.create () in
  let trace = ref [] in
  Des.spawn sim (fun () ->
      Des.delay sim 5.0;
      trace := ("b", Des.now sim) :: !trace);
  Des.spawn sim (fun () ->
      Des.delay sim 2.0;
      trace := ("a", Des.now sim) :: !trace);
  let finish = Des.run sim in
  Alcotest.check feq "final time" 5.0 finish;
  match List.rev !trace with
  | [ ("a", t1); ("b", t2) ] ->
    Alcotest.check feq "a at 2" 2.0 t1;
    Alcotest.check feq "b at 5" 5.0 t2
  | _ -> Alcotest.fail "wrong event order"

let test_equal_time_fifo () =
  let sim = Des.create () in
  let order = ref [] in
  for i = 1 to 5 do
    Des.spawn sim (fun () -> order := i :: !order)
  done;
  ignore (Des.run sim);
  Alcotest.(check (list int)) "creation order" [ 1; 2; 3; 4; 5 ] (List.rev !order)

let test_negative_delay_rejected () =
  let sim = Des.create () in
  let failed = ref false in
  Des.spawn sim (fun () ->
      match Des.delay sim (-1.0) with
      | () -> ()
      | exception Invalid_argument _ -> failed := true);
  ignore (Des.run sim);
  Alcotest.(check bool) "rejected" true !failed

let test_mailbox () =
  let sim = Des.create () in
  let mb = Sync.mailbox () in
  let got = ref [] in
  Des.spawn sim (fun () ->
      (* Blocks until the sender runs. *)
      got := Sync.recv mb :: !got;
      got := Sync.recv mb :: !got);
  Des.spawn sim (fun () ->
      Des.delay sim 1.0;
      Sync.send mb 42;
      Des.delay sim 1.0;
      Sync.send mb 43);
  ignore (Des.run sim);
  Alcotest.(check (list int)) "messages in order" [ 42; 43 ] (List.rev !got)

let test_resource_serializes () =
  let sim = Des.create () in
  let r = Sync.resource 1 in
  let finished = ref [] in
  for i = 1 to 3 do
    Des.spawn sim (fun () ->
        Sync.use sim r 10.0;
        finished := (i, Des.now sim) :: !finished)
  done;
  ignore (Des.run sim);
  let times = List.rev_map snd !finished in
  Alcotest.(check (list (float 1e-6))) "sequential service" [ 30.0; 20.0; 10.0 ]
    (List.rev times)

let test_resource_capacity_two () =
  let sim = Des.create () in
  let r = Sync.resource 2 in
  let finish = ref 0.0 in
  for _ = 1 to 4 do
    Des.spawn sim (fun () ->
        Sync.use sim r 10.0;
        finish := max !finish (Des.now sim))
  done;
  ignore (Des.run sim);
  Alcotest.check feq "two waves" 20.0 !finish

let test_join () =
  let sim = Des.create () in
  let j = Sync.join 3 in
  let released_at = ref (-1.0) in
  Des.spawn sim (fun () ->
      Sync.wait j;
      released_at := Des.now sim);
  for i = 1 to 3 do
    Des.spawn sim (fun () ->
        Des.delay sim (float_of_int i);
        Sync.signal j)
  done;
  ignore (Des.run sim);
  Alcotest.check feq "released when last child signals" 3.0 !released_at

let test_join_zero () =
  let sim = Des.create () in
  let ok = ref false in
  Des.spawn sim (fun () ->
      Sync.wait (Sync.join 0);
      ok := true);
  ignore (Des.run sim);
  Alcotest.(check bool) "no wait on empty join" true !ok

let test_ethernet_uncontended () =
  let sim = Des.create () in
  let e = Net.ethernet ~bytes_per_sec:1e6 ~contention_alpha:0.5 () in
  let t = ref 0.0 in
  Des.spawn sim (fun () ->
      Net.transfer sim e ~bytes:1e6;
      t := Des.now sim);
  ignore (Des.run sim);
  Alcotest.check feq "one second" 1.0 !t

let test_ethernet_contention () =
  let run concurrent =
    let sim = Des.create () in
    let e = Net.ethernet ~bytes_per_sec:1e6 ~contention_alpha:0.5 () in
    let finish = ref 0.0 in
    for _ = 1 to concurrent do
      Des.spawn sim (fun () ->
          Net.transfer sim e ~bytes:1e6;
          finish := max !finish (Des.now sim))
    done;
    ignore (Des.run sim);
    !finish
  in
  let solo = run 1 and pair = run 2 in
  (* Two concurrent transfers each slow down (collisions) but still
     overlap: strictly worse than one alone, strictly better than
     running them back to back. *)
  Alcotest.(check bool)
    (Printf.sprintf "solo %.2fs < pair %.2fs < 2x solo" solo pair)
    true
    (pair > 1.2 *. solo && pair < 2.0 *. solo)

let test_fileserver_queues () =
  let sim = Des.create () in
  let fs = Net.fileserver ~seek_seconds:1.0 ~disk_bytes_per_sec:1e6 () in
  let finish = ref 0.0 in
  for _ = 1 to 2 do
    Des.spawn sim (fun () ->
        Net.disk_io sim fs ~bytes:1e6;
        finish := max !finish (Des.now sim))
  done;
  ignore (Des.run sim);
  Alcotest.check feq "disk serializes" 4.0 !finish

let test_workstation_compute_factor () =
  let sim = Des.create () in
  let ws = Host.workstation ~id:0 ~mem_mb:16.0 in
  Host.add_resident ws 32.0; (* pressure 2.0 *)
  let t = ref 0.0 in
  Des.spawn sim (fun () ->
      (match
         Host.compute sim ws
           ~factor:(fun w -> 1.0 +. Host.memory_pressure w)
           ~seconds:10.0
       with
      | Fault.Completed -> ()
      | Fault.Station_failed _ -> Alcotest.fail "fault-free station failed");
      t := Des.now sim);
  ignore (Des.run sim);
  Alcotest.check feq "slowed 3x" 30.0 !t;
  Alcotest.check feq "cpu accumulated" 30.0 ws.Host.busy_seconds

let test_cluster_claim_fcfs () =
  let sim = Des.create () in
  let cluster = Host.cluster ~stations:2 () in
  let order = ref [] in
  for i = 1 to 3 do
    Des.spawn sim (fun () ->
        let ws = Host.claim sim cluster in
        Des.delay sim 10.0;
        order := (i, ws.Host.ws_id, Des.now sim) :: !order;
        Host.release_station sim cluster ws)
  done;
  ignore (Des.run sim);
  match List.rev !order with
  | [ (1, _, t1); (2, _, t2); (3, _, t3) ] ->
    Alcotest.check feq "first two together" t1 t2;
    Alcotest.check feq "third waits" 20.0 t3
  | _ -> Alcotest.fail "unexpected claim order"

(* Invariants under churn: a claim/release storm with jittered hold
   times never duplicates a station (claimed + free <= total at every
   instant; a just-released station handed straight to a waiter is
   momentarily in transit), and conservation is exact once the storm
   drains: every station is back in the free queue. *)
let test_cluster_claim_storm () =
  let stations = 4 in
  let sim = Des.create () in
  let cluster = Host.cluster ~stations () in
  let claimed = ref 0 in
  let violations = ref 0 in
  let check_no_duplication () =
    if !claimed + Queue.length cluster.Host.free > stations then incr violations
  in
  for i = 1 to 40 do
    Des.spawn sim (fun () ->
        Des.delay sim (0.1 *. float_of_int (i mod 7));
        let ws = Host.claim sim cluster in
        incr claimed;
        check_no_duplication ();
        Des.delay sim (1.0 +. float_of_int (i mod 3));
        decr claimed;
        Host.release_station sim cluster ws;
        check_no_duplication ())
  done;
  ignore (Des.run sim);
  Alcotest.(check int) "claimed + free <= stations throughout" 0 !violations;
  Alcotest.(check int) "all stations back in the pool" stations
    (Queue.length cluster.Host.free);
  Alcotest.(check int) "no waiters left" 0 (Queue.length cluster.Host.pool_waiters)

(* The ethernet's active-transfer count must drain to zero however the
   concurrent transfers interleave. *)
let test_ethernet_active_drains () =
  let sim = Des.create () in
  let e = Net.ethernet ~bytes_per_sec:1e6 () in
  e.Net.trace <- Trace.create ();
  let peak = ref 0 in
  for i = 1 to 12 do
    Des.spawn sim (fun () ->
        Des.delay sim (0.05 *. float_of_int (i mod 5));
        Net.transfer sim e ~bytes:(1e5 *. float_of_int (1 + (i mod 4)));
        peak := max !peak e.Net.active)
  done;
  ignore (Des.run sim);
  Alcotest.(check bool) "transfers overlapped" true (!peak >= 1);
  Alcotest.(check int) "active drains to zero" 0 e.Net.active;
  Alcotest.(check int) "all transfers traced" 12
    (List.length
       (List.filter
          (fun (s : Trace.span) ->
            s.Trace.track = Trace.ether_track && s.Trace.name = "transfer")
          (Trace.spans e.Net.trace)))

let prop_heap_order =
  QCheck.Test.make ~name:"events fire in time order" ~count:100
    QCheck.(list_of_size Gen.(int_range 1 40) (float_range 0.0 100.0))
    (fun delays ->
      let sim = Des.create () in
      let fired = ref [] in
      List.iter
        (fun d -> Des.spawn sim (fun () -> Des.delay sim d; fired := d :: !fired))
        delays;
      ignore (Des.run sim);
      let fired = List.rev !fired in
      fired = List.stable_sort compare delays && List.length fired = List.length delays)

let suites =
  [
    ( "netsim.des",
      [
        Alcotest.test_case "delay ordering" `Quick test_delay_ordering;
        Alcotest.test_case "equal-time fifo" `Quick test_equal_time_fifo;
        Alcotest.test_case "negative delay" `Quick test_negative_delay_rejected;
        QCheck_alcotest.to_alcotest prop_heap_order;
      ] );
    ( "netsim.sync",
      [
        Alcotest.test_case "mailbox" `Quick test_mailbox;
        Alcotest.test_case "resource serializes" `Quick test_resource_serializes;
        Alcotest.test_case "capacity two" `Quick test_resource_capacity_two;
        Alcotest.test_case "join" `Quick test_join;
        Alcotest.test_case "join zero" `Quick test_join_zero;
      ] );
    ( "netsim.net",
      [
        Alcotest.test_case "ethernet solo" `Quick test_ethernet_uncontended;
        Alcotest.test_case "ethernet contention" `Quick test_ethernet_contention;
        Alcotest.test_case "ethernet active drains" `Quick test_ethernet_active_drains;
        Alcotest.test_case "fileserver queue" `Quick test_fileserver_queues;
      ] );
    ( "netsim.host",
      [
        Alcotest.test_case "compute with factor" `Quick test_workstation_compute_factor;
        Alcotest.test_case "cluster fcfs" `Quick test_cluster_claim_fcfs;
        Alcotest.test_case "claim/release storm" `Quick test_cluster_claim_storm;
      ] );
  ]
