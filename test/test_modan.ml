(* Modular cross-module analysis (Modan): interface summaries,
   the .wsi artifact, link-time composition and the cross-module
   lints.

   Static guarantees: the frontend round-trips import/export
   declarations, summaries survive the artifact round-trip bit for
   bit, cross-module content keys invalidate exactly the transitive
   importers of an edited provider, composed edge reasons are pinned
   on a hand-written two-module project, and W010/W011/W012 fire
   exactly where documented.

   The soundness theorem is checked by QCheck: on random generated
   projects the composed edge set (from summaries alone) is a superset
   of what the whole-program analyzer finds on the inlined project —
   so schedules gated on the composed DAG stay conservative, which the
   traced project-scheduling test confirms with the race oracle. *)

open Parallel_cc

let parse src =
  let m = W2.Parser.module_of_string ~file:"test.w2" src in
  W2.Semcheck.check_module_exn m;
  m

(* Summarize a project in input order, accumulating provider summaries
   so cross-module content keys resolve. *)
let summarize_all mods =
  List.rev
    (List.fold_left
       (fun acc m -> Analysis.Modan.summarize ~deps:acc m :: acc)
       [] mods)

let compose_modules mods = Analysis.Modan.compose (summarize_all mods)

let diag_codes (link : Analysis.Modan.link) =
  List.map (fun d -> d.W2.Diag.d_code) link.Analysis.Modan.lk_diags

(* --- the hand-written two-module project --- *)

let prov_src =
  {|module prov
  export pf;
  section sp cells 1
  var pg : float;
  function pf(x: float) : float
  begin
    pg := x * 2.0;
    return pg;
  end
  end
end
|}

let cons_src =
  {|module cons
  import prov (pf(float) : float);
  section sc cells 1
  function main(n: int) : float
  begin
    return pf(float(n));
  end
  end
end
|}

let two_modules () = [ parse prov_src; parse cons_src ]

(* --- frontend: import/export declarations --- *)

let test_frontend_roundtrip () =
  let m = parse cons_src in
  Alcotest.(check int) "one import" 1 (List.length m.W2.Ast.imports);
  let im = List.hd m.W2.Ast.imports in
  Alcotest.(check string) "provider" "prov" im.W2.Ast.im_module;
  let s = List.hd im.W2.Ast.im_sigs in
  Alcotest.(check string) "imported name" "pf" s.W2.Ast.is_name;
  Alcotest.(check int) "arity" 1 (List.length s.W2.Ast.is_params);
  Alcotest.(check bool) "returns" true (s.W2.Ast.is_ret <> None);
  let p = parse prov_src in
  Alcotest.(check bool) "export recorded" true
    (W2.Ast.exports_function p "pf");
  (* pretty output re-parses to the same declarations *)
  let m' = parse (W2.Pretty.module_to_string m) in
  Alcotest.(check bool) "imports round-trip" true
    (m'.W2.Ast.imports = m.W2.Ast.imports
    || List.length m'.W2.Ast.imports = 1);
  let p' = parse (W2.Pretty.module_to_string p) in
  Alcotest.(check bool) "exports round-trip" true
    (W2.Ast.exports_function p' "pf")

let expect_semcheck_error src =
  match W2.Semcheck.check_module (W2.Parser.module_of_string src) with
  | [] -> Alcotest.fail "expected a semcheck error"
  | _ -> ()

let test_frontend_hygiene () =
  (* a module may not import itself *)
  expect_semcheck_error
    {|module m
  import m (f(int) : int);
  section s cells 1
  function main(n: int) : int
  begin
    return n;
  end
  end
end
|};
  (* exports must name a locally defined function *)
  expect_semcheck_error
    {|module m
  export ghost;
  section s cells 1
  function main(n: int) : int
  begin
    return n;
  end
  end
end
|};
  (* a function may not be both defined and imported *)
  expect_semcheck_error
    {|module m
  import other (main(int) : int);
  section s cells 1
  function main(n: int) : int
  begin
    return n;
  end
  end
end
|}

(* --- interface summaries and the artifact --- *)

let test_summary_shape () =
  let s = Analysis.Modan.summarize (parse prov_src) in
  Alcotest.(check string) "module" "prov" s.Analysis.Modan.ms_module;
  Alcotest.(check string) "section" "sp" s.Analysis.Modan.ms_section;
  Alcotest.(check (list string)) "globals" [ "pg" ] s.Analysis.Modan.ms_globals;
  Alcotest.(check int) "one function" 1
    (Array.length s.Analysis.Modan.ms_funcs);
  let f = s.Analysis.Modan.ms_funcs.(0) in
  Alcotest.(check string) "name" "pf" f.Analysis.Modan.ws_name;
  Alcotest.(check bool) "exported" true f.Analysis.Modan.ws_exported;
  Alcotest.(check (list string)) "no xcalls" [] f.Analysis.Modan.ws_xcalls;
  Alcotest.(check bool) "absint summary present" true
    (f.Analysis.Modan.ws_absint <> None)

let test_artifact_roundtrip () =
  List.iter
    (fun shape ->
      let mods = W2.Gen.project_program ~modules:6 ~seed:2 ~shape () in
      List.iter
        (fun s ->
          let a = Analysis.Modan.to_artifact s in
          let s' = Analysis.Modan.of_artifact a in
          Alcotest.(check string) "artifact is a fixpoint" a
            (Analysis.Modan.to_artifact s');
          Alcotest.(check string) "module survives"
            s.Analysis.Modan.ms_module s'.Analysis.Modan.ms_module;
          Alcotest.(check int) "functions survive"
            (Array.length s.Analysis.Modan.ms_funcs)
            (Array.length s'.Analysis.Modan.ms_funcs);
          Array.iteri
            (fun i (f : Analysis.Modan.func_summary) ->
              let f' = s'.Analysis.Modan.ms_funcs.(i) in
              Alcotest.(check string) "key survives"
                f.Analysis.Modan.ws_key f'.Analysis.Modan.ws_key;
              Alcotest.(check bool) "absint survives" true
                (f.Analysis.Modan.ws_absint = f'.Analysis.Modan.ws_absint))
            s.Analysis.Modan.ms_funcs)
        (summarize_all mods))
    W2.Gen.all_shapes

let test_artifact_rejects_garbage () =
  List.iter
    (fun src ->
      match Analysis.Modan.of_artifact src with
      | exception Analysis.Modan.Artifact_error _ -> ()
      | _ -> Alcotest.fail "expected Artifact_error")
    [ ""; "not an artifact"; "warpcc-wsi/999\nmodule m\n" ]

(* Corruptions of real artifacts: every truncation at a line boundary,
   every single-line drop and duplication, and one bit flip per byte
   (the flipped bit cycling through the byte).  [of_artifact] may
   accept a corrupted artifact or raise [Artifact_error]; nothing else
   may escape. *)
let artifact_corruptions a =
  let lines = String.split_on_char '\n' a in
  let n = List.length lines in
  let keep f = String.concat "\n" (List.concat (List.mapi f lines)) in
  List.init n (fun k -> keep (fun i l -> if i < k then [ l ] else []))
  @ List.init n (fun k -> keep (fun i l -> if i = k then [] else [ l ]))
  @ List.init n (fun k -> keep (fun i l -> if i = k then [ l; l ] else [ l ]))
  @ List.init (String.length a) (fun k ->
        String.mapi
          (fun i c -> if i = k then Char.chr (Char.code c lxor (1 lsl (k mod 8))) else c)
          a)

let check_artifact_input src =
  match Analysis.Modan.of_artifact src with
  | _ | (exception Analysis.Modan.Artifact_error _) -> ()
  | exception e ->
    Alcotest.failf "of_artifact raised %s on:\n%s" (Printexc.to_string e) src

let test_artifact_fuzz () =
  List.iter
    (fun shape ->
      let mods = W2.Gen.project_program ~modules:4 ~seed:3 ~shape () in
      List.iter
        (fun s ->
          List.iter check_artifact_input
            (artifact_corruptions (Analysis.Modan.to_artifact s)))
        (summarize_all mods))
    W2.Gen.all_shapes

let test_compose_from_artifacts () =
  let mods = W2.Gen.project_program ~modules:8 ~seed:5 ~shape:W2.Gen.Clustered () in
  let direct = compose_modules mods in
  let via_artifact =
    Analysis.Modan.compose
      (List.map
         (fun s -> Analysis.Modan.of_artifact (Analysis.Modan.to_artifact s))
         (summarize_all mods))
  in
  Alcotest.(check bool) "same composed DAG" true
    (Edges_oracle.link_pairs direct = Edges_oracle.link_pairs via_artifact);
  let speculative link =
    List.filter
      (fun e -> Analysis.Modan.xedge_confidence e = Analysis.Depan.Speculative)
      link.Analysis.Modan.lk_edges
  in
  Alcotest.(check bool) "same speculative subset" true
    (speculative direct = speculative via_artifact);
  Alcotest.(check (list string)) "same lints"
    (List.map (fun d -> d.W2.Diag.d_code) direct.Analysis.Modan.lk_diags)
    (List.map (fun d -> d.W2.Diag.d_code) via_artifact.Analysis.Modan.lk_diags)

(* --- cross-module content keys --- *)

(* Editing the hub's accessor must change its own key and the keys of
   exactly its transitive importers; workers that never reach the hub
   keep theirs. *)
let test_key_invalidation () =
  let mods = W2.Gen.project_program ~modules:8 ~seed:3 ~shape:W2.Gen.Clustered () in
  let key_of summaries m f =
    let s =
      List.find (fun s -> s.Analysis.Modan.ms_module = m) summaries
    in
    let fs =
      Array.to_list s.Analysis.Modan.ms_funcs
      |> List.find (fun fs -> fs.Analysis.Modan.ws_name = f)
    in
    fs.Analysis.Modan.ws_key
  in
  let before = summarize_all mods in
  let edited =
    List.map
      (fun (m : W2.Ast.modul) ->
        if m.W2.Ast.mname = "m0" then W2.Gen.touch_in m "m0_f0" else m)
      mods
  in
  let after = summarize_all edited in
  (* the edited provider *)
  Alcotest.(check bool) "provider key changes" false
    (key_of before "m0" "m0_f0" = key_of after "m0" "m0_f0");
  (* m1's entry imports the hub accessor: its key must change *)
  Alcotest.(check bool) "importer key changes" false
    (key_of before "m1" "m1_f0" = key_of after "m1" "m1_f0");
  (* m1's local worker never calls across the boundary: unchanged *)
  Alcotest.(check string) "unrelated worker key stable"
    (key_of before "m1" "m1_f1")
    (key_of after "m1" "m1_f1");
  (* m4 imports m3's worker f1, which does not reach the hub *)
  Alcotest.(check string) "transitively unrelated entry stable"
    (key_of before "m4" "m4_f0")
    (key_of after "m4" "m4_f0")

(* A callee's key comes from the last summary in [deps] that defines
   its name, "unresolved:NAME" when none does: the rule of a table that
   took every function of every dependency in order.  Checked against
   that table over dependency lists reversed, duplicated, missing a
   provider, and ending in an edited copy of a provider (same names,
   new keys). *)
let test_dep_keys_last_summary_wins () =
  let oracle_key deps (w : Analysis.Modan.func_summary) =
    let table = Hashtbl.create 64 in
    List.iter
      (fun d ->
        Array.iter
          (fun (v : Analysis.Modan.func_summary) ->
            Hashtbl.replace table v.Analysis.Modan.ws_name v.Analysis.Modan.ws_key)
          d.Analysis.Modan.ms_funcs)
      deps;
    Digest.to_hex
      (Digest.string
         (String.concat "\n"
            (w.Analysis.Modan.ws_hash
            :: List.map
                 (fun x ->
                   match Hashtbl.find_opt table x with
                   | Some k -> k
                   | None -> "unresolved:" ^ x)
                 w.Analysis.Modan.ws_xcalls)))
  in
  List.iter
    (fun shape ->
      let mods = W2.Gen.project_program ~modules:8 ~seed:5 ~shape () in
      let summaries = summarize_all mods in
      let edited =
        List.map
          (fun (s : Analysis.Modan.module_summary) ->
            let m =
              List.find
                (fun (m : W2.Ast.modul) -> m.W2.Ast.mname = s.Analysis.Modan.ms_module)
                mods
            in
            let f = s.Analysis.Modan.ms_funcs.(0).Analysis.Modan.ws_name in
            Analysis.Modan.summarize ~deps:summaries (W2.Gen.touch_in m f))
          summaries
      in
      let orders =
        [ summaries; List.rev summaries; summaries @ summaries;
          List.tl summaries; summaries @ [ List.hd edited ]; edited @ summaries;
          summaries @ List.rev edited ]
      in
      List.iter
        (fun m ->
          List.iter
            (fun deps ->
              let s = Analysis.Modan.summarize ~deps m in
              Array.iter
                (fun (w : Analysis.Modan.func_summary) ->
                  Alcotest.(check string)
                    (m.W2.Ast.mname ^ "." ^ w.Analysis.Modan.ws_name)
                    (oracle_key deps w) w.Analysis.Modan.ws_key)
                s.Analysis.Modan.ms_funcs)
            orders)
        mods)
    W2.Gen.all_shapes

(* --- composed edges, pinned --- *)

let test_compose_pins () =
  let link = compose_modules (two_modules ()) in
  Alcotest.(check (list string)) "link order" [ "prov"; "cons" ]
    link.Analysis.Modan.lk_order;
  Alcotest.(check (list string)) "no lints" [] (diag_codes link);
  Alcotest.(check bool) "nothing missing" true
    (link.Analysis.Modan.lk_missing = []);
  let cross =
    List.filter
      (fun (e : Analysis.Modan.xedge) ->
        e.Analysis.Modan.x_from_module <> e.Analysis.Modan.x_to_module)
      link.Analysis.Modan.lk_edges
  in
  Alcotest.(check int) "one cross edge" 1 (List.length cross);
  let e = List.hd cross in
  Alcotest.(check string) "provider first" "pf" e.Analysis.Modan.x_from;
  Alcotest.(check string) "importer second" "main" e.Analysis.Modan.x_to;
  let reasons =
    List.map Analysis.Modan.xreason_to_string e.Analysis.Modan.x_reasons
  in
  Alcotest.(check bool) "import_of reason" true
    (List.mem "import_of" reasons);
  Alcotest.(check bool) "qualified global reason" true
    (List.mem "xmodule_global:prov.pg" reasons);
  Alcotest.(check bool) "structurally proven" true
    (Analysis.Modan.xedge_confidence e = Analysis.Depan.Proven);
  (* the composed pair list carries the same edge *)
  Alcotest.(check bool) "func_deps carries it" true
    (List.mem ("pf", "main") (Edges_oracle.link_pairs link))

(* --- an import cycle is one antichain --- *)

(* ma and mb import each other and mb imports mc: module levels are
   antichains of the condensation, so the cycle sits on one level above
   mc, while function levels stay the function DAG's. *)
let cycle_modules () =
  List.map parse
    [
      {|module ma
  import mb (fb(int) : int);
  export fa;
  section sa cells 1
  function fa(n: int) : int
  begin
    return fb(n) + 1;
  end
  end
end
|};
      {|module mb
  import ma (fa(int) : int);
  import mc (fc(int) : int);
  export fb;
  section sb cells 1
  function fb(n: int) : int
  begin
    if n > 0 then
      return fa(n - 1);
    end;
    return fc(n);
  end
  end
end
|};
      {|module mc
  export fc;
  section sc cells 1
  function fc(n: int) : int
  begin
    return n * 2;
  end
  end
end
|};
    ]

let test_import_cycle_levels () =
  let link = compose_modules (cycle_modules ()) in
  let names = Alcotest.(list (list string)) in
  Alcotest.(check (list string)) "order" [ "mc"; "ma"; "mb" ] link.Analysis.Modan.lk_order;
  Alcotest.check names "sccs" [ [ "ma"; "mb" ] ] link.Analysis.Modan.lk_sccs;
  Alcotest.check names "module levels" [ [ "mc" ]; [ "ma"; "mb" ] ]
    link.Analysis.Modan.lk_module_levels;
  Alcotest.check names "function levels" [ [ "fc"; "fa" ]; [ "fb" ] ]
    link.Analysis.Modan.lk_levels

(* --- cross-module lints --- *)

let test_w010_absent_provider () =
  let link = compose_modules [ parse cons_src ] in
  Alcotest.(check bool) "W010 fires" true (List.mem "W010" (diag_codes link));
  Alcotest.(check bool) "call recorded missing" true
    (List.mem ("cons", "pf") link.Analysis.Modan.lk_missing);
  (* the importer's entry is pinned by the lost closure *)
  let main =
    List.find
      (fun (f : Analysis.Modan.xfunc) -> f.Analysis.Modan.xf_name = "main")
      link.Analysis.Modan.lk_funcs
  in
  Alcotest.(check bool) "importer limited" true main.Analysis.Modan.xf_limited

let test_w010_not_exported () =
  let prov_no_export =
    parse
      {|module prov
  section sp cells 1
  var pg : float;
  function pf(x: float) : float
  begin
    pg := x * 2.0;
    return pg;
  end
  end
end
|}
  in
  let link = compose_modules [ prov_no_export; parse cons_src ] in
  Alcotest.(check bool) "W010 fires" true (List.mem "W010" (diag_codes link))

let test_w010_signature_mismatch () =
  let cons_bad =
    parse
      {|module cons
  import prov (pf(int) : float);
  section sc cells 1
  function main(n: int) : float
  begin
    return pf(n);
  end
  end
end
|}
  in
  let link = compose_modules [ parse prov_src; cons_bad ] in
  Alcotest.(check bool) "W010 fires" true (List.mem "W010" (diag_codes link))

let test_w011_shared_global_name () =
  let owner =
    parse
      {|module owner
  section so cells 1
  var shared : float;
  function omain(n: int) : float
  begin
    return shared + float(n);
  end
  end
end
|}
  in
  let writer =
    parse
      {|module writer
  section sw cells 1
  var shared : float;
  function wmain(n: int) : float
  begin
    shared := float(n);
    return shared;
  end
  end
end
|}
  in
  let link = compose_modules [ owner; writer ] in
  let w011 =
    List.filter
      (fun d -> d.W2.Diag.d_code = "W011")
      link.Analysis.Modan.lk_diags
  in
  Alcotest.(check int) "one W011 (only writer blamed)" 1 (List.length w011);
  Alcotest.(check (option string)) "blames the writing function"
    (Some "wmain") (List.hd w011).W2.Diag.d_func

let test_w012_dead_export () =
  let link = compose_modules [ parse prov_src ] in
  Alcotest.(check (list string)) "dead export" [ "W012" ] (diag_codes link)

(* --- generated projects stay lint-clean (except the deliberate
   clustered W011 witness) --- *)

let test_generated_projects_lint () =
  let codes shape n =
    diag_codes
      (compose_modules (W2.Gen.project_program ~modules:n ~seed:1 ~shape ()))
  in
  Alcotest.(check (list string)) "layered clean" [] (codes W2.Gen.Layered 16);
  Alcotest.(check (list string)) "diamond clean" [] (codes W2.Gen.Diamond 16);
  let clustered = codes W2.Gen.Clustered 16 in
  Alcotest.(check bool) "clustered warns W011 only" true
    (clustered <> [] && List.for_all (( = ) "W011") clustered)

(* --- the soundness theorem --- *)

let unordered_pairs_of_link link =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (a, b) ->
      let k = if a < b then (a, b) else (b, a) in
      Hashtbl.replace tbl k ())
    (Edges_oracle.link_pairs link);
  tbl

let prop_composed_superset =
  QCheck.Test.make ~name:"composed DAG ⊇ whole-program analysis" ~count:24
    QCheck.(triple (int_range 0 2) (int_range 4 12) (int_range 1 10_000))
    (fun (si, n, seed) ->
      let shape = List.nth W2.Gen.all_shapes si in
      let mods = W2.Gen.project_program ~modules:n ~seed ~shape () in
      let link = compose_modules mods in
      let composed = unordered_pairs_of_link link in
      let merged = Analysis.Modan.inline_project mods in
      W2.Semcheck.check_module_exn merged;
      let t = Analysis.Depan.analyze merged in
      List.for_all
        (fun (si : Analysis.Depan.section_info) ->
          List.for_all
            (fun (a, b, _) ->
              let k = if a < b then (a, b) else (b, a) in
              Hashtbl.mem composed k)
            (Analysis.Depan.edges_by_name si))
        t.Analysis.Depan.dp_sections)

(* --- scheduling the composed DAG --- *)

let test_link_plan_invariants () =
  let mw, link =
    Experiment.link_program_work ~shape:W2.Gen.Clustered ~modules:16 ()
  in
  let plan = Experiment.link_plan mw link in
  let deps = List.concat_map (fun (s, _) -> Plan.section_edges plan s) plan.Plan.edges in
  (* hot ⊆ spec ⊆ deps is a property of the classified list; what is
     left to check is that it covers the composed DAG exactly *)
  Alcotest.(check int) "one plan edge per composed edge"
    (List.length link.Analysis.Modan.lk_edges)
    (List.length deps);
  (* every composed endpoint is a real task of the inlined program *)
  let funcs =
    List.map
      (fun (f : Driver.Compile.func_work) -> f.Driver.Compile.fw_name)
      (Driver.Compile.all_funcs mw)
  in
  Alcotest.(check bool) "endpoints exist" true
    (List.for_all (fun (a, b) -> List.mem a funcs && List.mem b funcs) deps)

let test_project_schedule_race_free () =
  let mw, link =
    Experiment.link_program_work ~shape:W2.Gen.Clustered ~modules:16 ()
  in
  let plan = Experiment.link_plan mw link in
  let tr = Trace.create () in
  let cfg =
    {
      Config.default with
      Config.stations = 5;
      noise_seed = 3;
      sched_policy = Sched.Dag_lpt;
      trace = tr;
    }
  in
  let { Parrun.run = r; scheduled; _ } = Parrun.run cfg mw plan in
  Alcotest.(check bool) "made progress" true (r.Timings.elapsed > 0.0);
  Alcotest.(check int) "race oracle clean" 0
    (List.length (Traceview.violations Sched.All tr ~plan:scheduled))

(* --- outputs --- *)

let contains needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_outputs_render () =
  let link = compose_modules (two_modules ()) in
  let report = Analysis.Modan.report link in
  Alcotest.(check bool) "report mentions both modules" true
    (contains "prov" report && contains "cons" report);
  let dot = Analysis.Modan.to_dot link in
  Alcotest.(check bool) "dot has clusters" true (contains "cluster" dot);
  let json = Analysis.Modan.to_json link in
  Alcotest.(check bool) "schema /3" true
    (contains "\"schema\": \"warpcc-analyze/3\"" json);
  Alcotest.(check bool) "kind project" true
    (contains "\"kind\": \"project\"" json)

let suites =
  [
    ( "modan.frontend",
      [
        Alcotest.test_case "import/export round-trip" `Quick
          test_frontend_roundtrip;
        Alcotest.test_case "interface hygiene" `Quick test_frontend_hygiene;
      ] );
    ( "modan.summary",
      [
        Alcotest.test_case "summary shape" `Quick test_summary_shape;
        Alcotest.test_case "artifact round-trip" `Quick test_artifact_roundtrip;
        Alcotest.test_case "artifact rejects garbage" `Quick
          test_artifact_rejects_garbage;
        Alcotest.test_case "artifact fuzz: only Artifact_error escapes"
          `Quick test_artifact_fuzz;
        Alcotest.test_case "compose from artifacts" `Quick
          test_compose_from_artifacts;
        Alcotest.test_case "key invalidation" `Quick test_key_invalidation;
        Alcotest.test_case "dependency keys: last summary wins" `Quick
          test_dep_keys_last_summary_wins;
      ] );
    ( "modan.compose",
      [
        Alcotest.test_case "edge pins" `Quick test_compose_pins;
        Alcotest.test_case "W010 absent provider" `Quick
          test_w010_absent_provider;
        Alcotest.test_case "W010 not exported" `Quick test_w010_not_exported;
        Alcotest.test_case "W010 signature mismatch" `Quick
          test_w010_signature_mismatch;
        Alcotest.test_case "W011 shared global name" `Quick
          test_w011_shared_global_name;
        Alcotest.test_case "W012 dead export" `Quick test_w012_dead_export;
        Alcotest.test_case "generated projects lint" `Quick
          test_generated_projects_lint;
        QCheck_alcotest.to_alcotest prop_composed_superset;
        Alcotest.test_case "import cycle is one level" `Quick
          test_import_cycle_levels;
      ] );
    ( "modan.sched",
      [
        Alcotest.test_case "plan invariants" `Quick test_link_plan_invariants;
        Alcotest.test_case "race-free project schedule" `Quick
          test_project_schedule_race_free;
        Alcotest.test_case "outputs render" `Quick test_outputs_render;
      ] );
  ]
