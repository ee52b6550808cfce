(* The content-addressed compile cache (docs/CACHING.md).

   The guarantees, by layer:
   - Key derivation is deterministic, salted by the optimization
     configuration, and closed over the dependence ancestry: a
     semantics-neutral edit of one function changes exactly the keys of
     its invalidation closure and nothing else.
   - The runners memoize the phase-2/3 artifact: a warm run hits on
     every function and finishes strictly faster, its store bytes are
     identical to the cold run's, and the one-edit run recompiles
     exactly the closure (each such miss flagged as an invalidation).
   - [Config.cache = None] (the default) leaves the event schedule
     untouched, so two disabled runs are bit-identical and carry zero
     counters; [fine_grained] bypasses the cache in both runners.
   - Store population is exactly-once per key, fault plans and
     speculative rollbacks included: a quarantined speculative artifact
     never reaches the store. *)

open Parallel_cc

(* CI salts the chaos fault plans (see .github/workflows/ci.yml). *)
let chaos_seed () =
  match Sys.getenv_opt "CHAOS_SEED" with
  | Some s -> int_of_string s
  | None -> 1

let helpers ?edit () =
  Experiment.cache_program_work ~name:"helpers" ?edit (fun () ->
      W2.Gen.helper_program ())

let small8 ?edit () =
  Experiment.cache_program_work ~name:"small8" ?edit (fun () ->
      W2.Gen.s_program ~size:W2.Gen.Small ~count:8 ())

let racy () =
  Experiment.spec_program_work ~absint:true ~name:"racy3" (fun () ->
      W2.Gen.racy_program ~scatters:3 ())

(* (section, name) -> cache key, sorted; every function must carry a
   key when the module went through the phase-1 analysis. *)
let keys_of (mw : Driver.Compile.module_work) =
  List.sort compare
    (List.map
       (fun (fw : Driver.Compile.func_work) ->
         match fw.Driver.Compile.fw_key with
         | Some k -> ((fw.Driver.Compile.fw_section, fw.Driver.Compile.fw_name), k)
         | None ->
           Alcotest.failf "%s has no cache key" fw.Driver.Compile.fw_name)
       (Driver.Compile.all_funcs mw))

let n_funcs mw = List.length (Driver.Compile.all_funcs mw)

let cache_cfg ?(pool = 4) store =
  {
    Config.default with
    Config.stations = pool + 1;
    noise_seed = 3;
    sched_policy = Sched.Dag_lpt;
    cache = store;
  }

let par cfg mw = (Parrun.run cfg mw (Plan.one_per_station mw)).Parrun.run

(* --- key derivation --- *)

let test_keys_deterministic () =
  let compile () = Driver.Compile.compile_module ~level:2 (W2.Gen.helper_program ()) in
  let a = keys_of (compile ()) and b = keys_of (compile ()) in
  Alcotest.(check (list (pair (pair string string) string)))
    "same module, same keys" a b;
  List.iter
    (fun ((_, name), k) ->
      Alcotest.(check int) (name ^ ": 32-hex key") 32 (String.length k);
      String.iter
        (fun c ->
          if not ((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')) then
            Alcotest.failf "%s: non-hex key %s" name k)
        k)
    a

let test_salt_sensitivity () =
  Alcotest.(check bool)
    "salts differ across optimization levels" true
    (Analysis.Depan.cache_salt ~opt_level:2 ~verify_each:false
     <> Analysis.Depan.cache_salt ~opt_level:0 ~verify_each:false);
  Alcotest.(check bool)
    "salts differ with verify-each" true
    (Analysis.Depan.cache_salt ~opt_level:2 ~verify_each:false
     <> Analysis.Depan.cache_salt ~opt_level:2 ~verify_each:true);
  let at level = keys_of (Driver.Compile.compile_module ~level (W2.Gen.helper_program ())) in
  List.iter2
    (fun (f, k2) (f', k0) ->
      Alcotest.(check (pair string string)) "same function order" f f';
      Alcotest.(check bool) (snd f ^ ": key salted by -O") true (k2 <> k0))
    (at 2) (at 0)

let test_edit_invalidates_exactly_closure () =
  let base = helpers () in
  let edited_name = Experiment.widest_edit base in
  let edited = helpers ~edit:edited_name () in
  (* The touch is semantics-neutral: the dependence DAG is unchanged,
     so the closure computed on either module agrees. *)
  let edges mw =
    List.concat_map
      (fun si ->
        List.map
          (fun (f, t, _) -> (si.Analysis.Depan.si_name, f, t))
          (Analysis.Depan.edges_by_name si))
      mw.Driver.Compile.mw_analysis.Analysis.Depan.dp_sections
  in
  Alcotest.(check (list (triple string string string)))
    "neutral edit preserves the DAG" (edges base) (edges edited);
  let changed =
    List.filter_map
      (fun ((f, k), (f', k')) ->
        Alcotest.(check (pair string string)) "same function order" f f';
        if k <> k' then Some (snd f) else None)
      (List.combine (keys_of base) (keys_of edited))
  in
  Alcotest.(check int)
    (Printf.sprintf "edit of %s changes exactly its closure" edited_name)
    (Experiment.edit_closure edited.Driver.Compile.mw_analysis edited_name)
    (List.length changed);
  Alcotest.(check bool) "the edited function's own key changed" true
    (List.mem edited_name changed)

(* Unedited functions keep their keys bit for bit — the
   rename-insensitivity that makes warm hits possible at all. *)
let test_untouched_keys_stable () =
  let base = keys_of (helpers ()) in
  let edited_name = Experiment.widest_edit (helpers ()) in
  let closure =
    Experiment.edit_closure
      (helpers ()).Driver.Compile.mw_analysis edited_name
  in
  let edited = keys_of (helpers ~edit:edited_name ()) in
  let same =
    List.length (List.filter (fun e -> List.mem e edited) base)
  in
  Alcotest.(check int) "all keys outside the closure survive"
    (List.length base - closure) same

(* --- the runners --- *)

let test_cold_warm_parrun () =
  let mw = small8 () in
  let n = n_funcs mw in
  let store = Cache.create () in
  let cfg = cache_cfg (Some store) in
  let cold = par cfg mw in
  Alcotest.(check int) "cold: every lookup misses" n cold.Timings.cache_misses;
  Alcotest.(check int) "cold: no hits" 0 cold.Timings.cache_hits;
  Alcotest.(check int) "cold: nothing invalidated" 0 cold.Timings.cache_invalidated;
  Alcotest.(check int) "cold populated every function" n (Cache.size store);
  (* A second cold run on a fresh store produces identical bytes. *)
  let store2 = Cache.create () in
  ignore (par (cache_cfg (Some store2)) mw);
  Alcotest.(check (list (pair string (float 0.0))))
    "cold stores are byte-identical" (Cache.entries store) (Cache.entries store2);
  let warm = par cfg mw in
  Alcotest.(check int) "warm: every lookup hits" n warm.Timings.cache_hits;
  Alcotest.(check int) "warm: no misses" 0 warm.Timings.cache_misses;
  Alcotest.(check bool)
    (Printf.sprintf "warm strictly faster (%.1f < %.1f)"
       warm.Timings.elapsed cold.Timings.elapsed)
    true
    (warm.Timings.elapsed < cold.Timings.elapsed);
  Alcotest.(check (list (pair string (float 0.0))))
    "warm run stores nothing new" (Cache.entries store2) (Cache.entries store);
  List.iter
    (fun (k, _) ->
      Alcotest.(check int) "exactly-once store" 1 (Cache.store_count store k))
    (Cache.entries store)

let test_one_edit_recompiles_closure () =
  let mw = helpers () in
  let edited_name = Experiment.widest_edit mw in
  let mw_edit = helpers ~edit:edited_name () in
  let closure =
    Experiment.edit_closure mw_edit.Driver.Compile.mw_analysis edited_name
  in
  let store = Cache.create () in
  let cfg = cache_cfg (Some store) in
  ignore (par cfg mw);
  let edit = par cfg mw_edit in
  Alcotest.(check int) "edit recompiles exactly the closure" closure
    edit.Timings.cache_misses;
  Alcotest.(check int) "every edit miss is an invalidation" closure
    edit.Timings.cache_invalidated;
  Alcotest.(check int) "everything else hits"
    (n_funcs mw - closure) edit.Timings.cache_hits

let test_disabled_is_deterministic () =
  let mw = small8 () in
  let cfg = cache_cfg None in
  let a = par cfg mw and b = par cfg mw in
  Alcotest.(check (float 0.0)) "disabled runs bit-equal" a.Timings.elapsed
    b.Timings.elapsed;
  Alcotest.(check (list (float 0.0)))
    "per-station CPU bit-equal" a.Timings.cpu_per_station b.Timings.cpu_per_station;
  List.iter
    (fun (r : Timings.run) ->
      Alcotest.(check int) "no hits without a cache" 0 r.Timings.cache_hits;
      Alcotest.(check int) "no misses without a cache" 0 r.Timings.cache_misses;
      Alcotest.(check int) "no invalidations without a cache" 0
        r.Timings.cache_invalidated)
    [ a; b ]

let test_seqrun_cold_warm () =
  let mw = small8 () in
  let n = n_funcs mw in
  let store = Cache.create () in
  let cfg = { Config.default with Config.stations = 1; cache = Some store } in
  let cold = Seqrun.run cfg mw in
  let warm = Seqrun.run cfg mw in
  Alcotest.(check int) "seq cold: every lookup misses" n cold.Timings.cache_misses;
  Alcotest.(check int) "seq warm: every lookup hits" n warm.Timings.cache_hits;
  Alcotest.(check int) "seq warm: no misses" 0 warm.Timings.cache_misses;
  Alcotest.(check bool)
    (Printf.sprintf "seq warm strictly faster (%.1f < %.1f)"
       warm.Timings.elapsed cold.Timings.elapsed)
    true
    (warm.Timings.elapsed < cold.Timings.elapsed);
  Alcotest.(check int) "seq cold populated every function" n (Cache.size store)

let test_fine_grained_bypasses () =
  let mw = small8 () in
  let store = Cache.create () in
  let runs =
    [
      par { (cache_cfg (Some store)) with Config.fine_grained = true } mw;
      Seqrun.run
        {
          Config.default with
          Config.stations = 1;
          fine_grained = true;
          cache = Some store;
        }
        mw;
    ]
  in
  List.iter
    (fun (r : Timings.run) ->
      Alcotest.(check int) "fine grain: no hits" 0 r.Timings.cache_hits;
      Alcotest.(check int) "fine grain: no misses" 0 r.Timings.cache_misses)
    runs;
  Alcotest.(check int) "fine grain: store untouched" 0 (Cache.size store)

(* --- trace recovery --- *)

(* Compile-cache index instants of one kind, counted from the trace. *)
let cache_instants tr name =
  List.length
    (List.filter
       (fun (i : Trace.instant) -> i.Trace.i_cat = "cache" && i.Trace.i_name = name)
       (Trace.instants tr))

let test_trace_recovers_counters () =
  let mw = small8 () in
  let n = n_funcs mw in
  let store = Cache.create () in
  let tr = Trace.create () in
  let cold = par { (cache_cfg (Some store)) with Config.trace = tr } mw in
  Alcotest.(check int) "traced misses" cold.Timings.cache_misses
    (cache_instants tr "cache-miss");
  Alcotest.(check int) "traced hits" 0 (cache_instants tr "cache-hit");
  Alcotest.(check int) "traced stores = artifacts stored" (Cache.size store)
    (cache_instants tr "cache-store");
  let tr2 = Trace.create () in
  let warm = par { (cache_cfg (Some store)) with Config.trace = tr2 } mw in
  Alcotest.(check int) "warm traced hits" n (cache_instants tr2 "cache-hit");
  Alcotest.(check int) "warm traced hits = counter" warm.Timings.cache_hits
    (cache_instants tr2 "cache-hit");
  Alcotest.(check int) "warm stores nothing" 0 (cache_instants tr2 "cache-store")

(* --- chaos: faults and speculation --- *)

let test_chaos_exactly_once () =
  let mw = small8 () in
  let n = n_funcs mw in
  let ff = (par (cache_cfg (Some (Cache.create ()))) mw).Timings.elapsed in
  List.iter
    (fun rate ->
      let faults =
        Netsim.Fault.random ~seed:(chaos_seed ()) ~stations:5 ~rate
          ~horizon:(ff *. 1.5) ()
      in
      let store = Cache.create () in
      let faulty =
        par
          {
            (cache_cfg (Some store)) with
            Config.faults;
            retry_budget = 2;
            trace = Trace.create ();
          }
          mw
      in
      let label = Printf.sprintf "rate %.2f" rate in
      Alcotest.(check bool) (label ^ ": terminates") true
        (faulty.Timings.elapsed > 0.0);
      Alcotest.(check int) (label ^ ": every function stored") n
        (Cache.size store);
      List.iter
        (fun (k, _) ->
          Alcotest.(check int)
            (label ^ ": exactly-once store under faults")
            1 (Cache.store_count store k))
        (Cache.entries store);
      (* The store survives the chaos intact: a fault-free warm run
         hits on everything. *)
      let warm = par (cache_cfg (Some store)) mw in
      Alcotest.(check int) (label ^ ": warm after chaos hits all") n
        warm.Timings.cache_hits)
    [ 0.5; 1.0 ]

let test_chaos_spec_quarantine () =
  let mw = racy () in
  let n = n_funcs mw in
  let store = Cache.create () in
  let spec_cfg =
    {
      (cache_cfg ~pool:3 (Some store)) with
      Config.sched_policy = Sched.Dag_spec;
    }
  in
  let cold = par { spec_cfg with Config.trace = Trace.create () } mw in
  Alcotest.(check bool) "racy: at least one rollback" true
    (cold.Timings.spec_rolled_back >= 1);
  (* The empty store cannot hit, rollbacks notwithstanding: a
     quarantined speculative artifact never populates, so nothing can
     be served from it. *)
  Alcotest.(check int) "racy cold: no hits" 0 cold.Timings.cache_hits;
  Alcotest.(check int) "racy: every function stored once" n (Cache.size store);
  List.iter
    (fun (k, _) ->
      Alcotest.(check int) "racy: exactly-once store across rollbacks" 1
        (Cache.store_count store k))
    (Cache.entries store);
  (* Lookups are per attempt, and re-dispatched rollback attempts look
     up again — so the warm run can hit more often than it has
     functions, but it must never miss. *)
  let warm = par { spec_cfg with Config.trace = Trace.create () } mw in
  Alcotest.(check bool) "racy warm: at least one hit per function" true
    (warm.Timings.cache_hits >= n);
  Alcotest.(check int) "racy warm: no misses" 0 warm.Timings.cache_misses

(* --- keys cover the globals Lower localizes --- *)

(* One function [f] over [decls]; [body] mentions some of them. *)
let global_module decls body =
  Printf.sprintf
    {|module m
  section s cells 1
  %s
  function f(i: int) : int
  begin
    %s
    return i;
  end
  end
end|}
    decls body

let sole_key src =
  match keys_of (Driver.Compile.compile_source ~level:2 src) with
  | [ (_, k) ] -> k
  | keys -> Alcotest.failf "expected one key, got %d" (List.length keys)

(* The phase-2/3 output of [f] alone, as encoded image bytes. *)
let sole_bytes src =
  let m = W2.Parser.module_of_string src in
  let sec = List.hd m.W2.Ast.sections in
  let _, mf, _ =
    Driver.Compile.compile_function ~level:2 ~globals:sec.W2.Ast.globals
      ~func_rets:(Driver.Compile.func_rets_of sec) ~section:sec.W2.Ast.sname
      (List.hd sec.W2.Ast.funcs)
  in
  Warp.Asm.encode
    (Warp.Link.link ~section:sec.W2.Ast.sname ~cells:sec.W2.Ast.cells [ mf ])

(* An edit changes the key exactly when it changes the bytes. *)
let check_global_edit label ~before ~after ~changes =
  Alcotest.(check bool) (label ^ ": bytes change") changes
    (sole_bytes before <> sole_bytes after);
  Alcotest.(check bool) (label ^ ": key changes") changes
    (sole_key before <> sole_key after)

let test_global_resize () =
  let body = "g[i] := g[i] + 1.0;" in
  check_global_edit "array[16] -> array[64]" ~changes:true
    ~before:(global_module "var g : array[16] of float;" body)
    ~after:(global_module "var g : array[64] of float;" body)

let test_global_retype () =
  let body = "g[i] := g[i + 1];" in
  check_global_edit "of float -> of int" ~changes:true
    ~before:(global_module "var g : array[16] of float;" body)
    ~after:(global_module "var g : array[16] of int;" body)

let test_global_reorder () =
  let body = "a[i] := b[i];" in
  check_global_edit "a, b -> b, a" ~changes:true
    ~before:
      (global_module "var a : array[8] of float;\n  var b : array[8] of float;" body)
    ~after:
      (global_module "var b : array[8] of float;\n  var a : array[8] of float;" body)

let test_unmentioned_global () =
  let body = "g[i] := g[i] + 1.0;" in
  check_global_edit "unmentioned h resized" ~changes:false
    ~before:
      (global_module "var g : array[16] of float;\n  var h : array[4] of int;" body)
    ~after:
      (global_module "var g : array[16] of float;\n  var h : array[32] of int;" body)

(* --- properties --- *)

(* The tentpole property: one semantics-neutral edit changes exactly
   the keys of the edited function's invalidation closure.  The edit
   target is drawn at random from the helper program's functions. *)
let test_edit_closure_property () =
  let base = helpers () in
  let funcs = Driver.Compile.all_funcs base in
  let n = List.length funcs in
  QCheck.Test.make ~count:24 ~name:"one edit invalidates exactly its closure"
    QCheck.(int_range 0 (n - 1))
    (fun i ->
      let fw = List.nth funcs i in
      let name = fw.Driver.Compile.fw_name in
      let edited = helpers ~edit:name () in
      let changed =
        List.filter
          (fun ((_, k), (_, k')) -> k <> k')
          (List.combine (keys_of base) (keys_of edited))
      in
      List.length changed
      = Experiment.edit_closure edited.Driver.Compile.mw_analysis name
      && List.exists (fun ((f, _), _) -> snd f = name) changed)

let suites =
  [
    ( "cache.keys",
      [
        Alcotest.test_case "keys are deterministic" `Quick
          test_keys_deterministic;
        Alcotest.test_case "keys are salted" `Quick test_salt_sensitivity;
        Alcotest.test_case "edit invalidates exactly the closure" `Quick
          test_edit_invalidates_exactly_closure;
        Alcotest.test_case "untouched keys are stable" `Quick
          test_untouched_keys_stable;
        Alcotest.test_case "global resize changes key and bytes" `Quick
          test_global_resize;
        Alcotest.test_case "global retype changes key and bytes" `Quick
          test_global_retype;
        Alcotest.test_case "global reorder changes key and bytes" `Quick
          test_global_reorder;
        Alcotest.test_case "unmentioned global keeps key and bytes" `Quick
          test_unmentioned_global;
      ] );
    ( "cache.runtime",
      [
        Alcotest.test_case "cold then warm (parallel)" `Quick
          test_cold_warm_parrun;
        Alcotest.test_case "one edit recompiles the closure" `Quick
          test_one_edit_recompiles_closure;
        Alcotest.test_case "disabled cache is deterministic" `Quick
          test_disabled_is_deterministic;
        Alcotest.test_case "cold then warm (sequential)" `Quick
          test_seqrun_cold_warm;
        Alcotest.test_case "fine grain bypasses the cache" `Quick
          test_fine_grained_bypasses;
        Alcotest.test_case "trace recovers the tallies" `Quick
          test_trace_recovers_counters;
      ] );
    ( "cache.chaos",
      [
        Alcotest.test_case "exactly-once under fault plans" `Slow
          test_chaos_exactly_once;
        Alcotest.test_case "speculative rollback never populates" `Quick
          test_chaos_spec_quarantine;
      ] );
    ( "cache.props",
      [ QCheck_alcotest.to_alcotest (test_edit_closure_property ()) ] );
  ]
