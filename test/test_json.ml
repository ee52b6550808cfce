(* The machine-readable writers against their hand-rolled oracles
   (json_oracle.ml), and the SARIF document pinned field by field.

   The writers now build one Stats.Json value each and print it in one
   fixed layout, so the analyzer, simulate, profile and SARIF documents
   are checked equal to the oracles' with whitespace outside string
   literals removed: same members, same order, same number texts.  The
   Chrome trace keeps the oracle's layout and is checked byte for
   byte. *)

open Parallel_cc

(* The document with every blank outside a string literal dropped. *)
let squeeze s =
  let b = Buffer.create (String.length s) in
  let in_str = ref false and escaped = ref false in
  String.iter
    (fun c ->
      if !in_str then begin
        Buffer.add_char b c;
        if !escaped then escaped := false
        else if c = '\\' then escaped := true
        else if c = '"' then in_str := false
      end
      else if c = '"' then begin
        in_str := true;
        Buffer.add_char b c
      end
      else if not (c = ' ' || c = '\n') then Buffer.add_char b c)
    s;
  Buffer.contents b

let same_document label ~oracle doc =
  Alcotest.(check string) label (squeeze oracle) (squeeze doc)

let examples = Tutil.examples

let test_module_documents () =
  List.iter
    (fun (file, src) ->
      let m = W2.Parser.module_of_string ~file src in
      List.iter
        (fun absint ->
          let t = Analysis.Depan.analyze ~absint m in
          let label what = Printf.sprintf "%s %s absint=%b" file what absint in
          same_document (label "analyze --json")
            ~oracle:(Json_oracle.Depan.to_json t)
            (Analysis.Depan.to_json t);
          let diags = Analysis.Depan.lint t in
          same_document (label "analyze --sarif")
            ~oracle:(Json_oracle.Sarif.to_string diags)
            (W2.Sarif.to_string diags))
        [ true; false ])
    (Lazy.force examples)

let summarize_all mods =
  List.rev
    (List.fold_left
       (fun acc m -> Analysis.Modan.summarize ~deps:acc m :: acc)
       [] mods)

let test_project_documents () =
  List.iter
    (fun shape ->
      List.iter
        (fun modules ->
          let link =
            Analysis.Modan.compose
              (summarize_all (W2.Gen.project_program ~modules ~seed:1 ~shape ()))
          in
          let label what =
            Printf.sprintf "%s/%d %s" (W2.Gen.shape_name shape) modules what
          in
          same_document (label "analyze --project --json")
            ~oracle:(Json_oracle.Modan.to_json link)
            (Analysis.Modan.to_json link);
          let diags = link.Analysis.Modan.lk_diags in
          same_document (label "analyze --project --sarif")
            ~oracle:(Json_oracle.Sarif.to_string diags)
            (W2.Sarif.to_string diags))
        [ 6; 24 ])
    W2.Gen.all_shapes

(* [warpcc simulate] and [warpcc profile]'s runs: the module on one
   station per function master plus the master's, traced. *)
let test_run_documents () =
  List.iter
    (fun name ->
      let src = List.assoc name (Lazy.force examples) in
      let mw = Driver.Compile.compile_source ~file:name src in
      let plan = Plan.one_per_station mw in
      let n_fm = Plan.task_count plan in
      let tr = Trace.create () in
      let cfg =
        {
          Config.default with
          Config.stations = n_fm + 1;
          noise_seed = 1 + (17 * n_fm);
          trace = tr;
        }
      in
      let seq = Seqrun.run { cfg with Config.stations = 1; trace = Trace.none } mw in
      let { Parrun.run = par; scheduled; _ } = Parrun.run cfg mw plan in
      let c = Timings.compare_runs ~processors:n_fm ~seq ~par in
      same_document (name ^ " simulate --json")
        ~oracle:(Json_oracle.Timings.comparison_to_json c)
        (Timings.comparison_to_json c);
      let p = Critpath.of_trace ~plan:scheduled ~elapsed:par.Timings.elapsed tr in
      let bound = Critpath.dag_bound ~cost:cfg.Config.cost mw in
      let module_name = name and policy = "fcfs" and processors = n_fm in
      same_document (name ^ " profile --json")
        ~oracle:
          (Json_oracle.Critpath.to_json ~module_name ~policy ~processors p)
        (Critpath.to_json ~module_name ~policy ~processors p);
      same_document (name ^ " profile --json --what-if --top 5")
        ~oracle:
          (Json_oracle.Critpath.to_json ~module_name ~policy ~processors ~top:5
             ~bound p)
        (Critpath.to_json ~module_name ~policy ~processors ~top:5 ~bound p);
      Alcotest.(check string) (name ^ " simulate --trace")
        (Json_oracle.Trace.to_chrome_json tr)
        (Trace.to_chrome_json tr);
      let flows = Critpath.path_flows p in
      Alcotest.(check string) (name ^ " profile --trace")
        (Json_oracle.Trace.to_chrome_json ~flows tr)
        (Trace.to_chrome_json ~flows tr))
    [ "fir.w2"; "coupled.w2"; "racy.w2" ]

(* Arg values that only look numeric stay strings; the oracle wrote
   them verbatim as (sometimes invalid) JSON numbers. *)
let test_trace_arg_numbers () =
  let tr = Trace.create () in
  Trace.instant tr ~track:1 ~cat:"task" ~name:"x"
    ~args:
      [
        ("int", "42");
        ("float", Trace.farg 0.1);
        ("padded", "007");
        ("short", "0.1");
        ("hex", "0x1f");
        ("text", "phase23");
      ]
    ~at:1.0 ();
  let json = Trace.to_chrome_json tr in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (needle ^ " present") true (Tutil.contains json needle))
    [
      "\"int\": 42";
      "\"float\": 0.10000000000000001";
      "\"padded\": \"007\"";
      "\"short\": \"0.1\"";
      "\"hex\": \"0x1f\"";
      "\"text\": \"phase23\"";
    ]

(* --- SARIF pinned --- *)

let diag ?func ?(loc = W2.Loc.dummy) code message =
  W2.Diag.make ?func ~code ~severity:W2.Diag.Warning ~loc message

let sarif diags = W2.Sarif.to_string diags

let test_sarif_version () =
  Alcotest.(check string) "version constant" "2.1.0" W2.Sarif.version;
  Alcotest.(check bool) "version member" true
    (Tutil.contains (sarif []) "\"version\": \"2.1.0\"")

let test_sarif_rules_sorted_unique () =
  let doc =
    sarif [ diag "W008" "b"; diag "W001" "a"; diag "W008" "c"; diag "V001" "d" ]
  in
  Alcotest.(check bool) "sorted, de-duplicated rule ids" true
    (Tutil.contains doc
       "\"rules\": [{\"id\": \"V001\", \"shortDescription\": {\"text\": \
        \"warpcc diagnostic\"}}, {\"id\": \"W001\", \
        \"shortDescription\": {\"text\": \"Unused variable\"}}, {\"id\": \"W008\", \
        \"shortDescription\": {\"text\": \"Section global written by one function \
        and accessed by a sibling\"}}]")

let test_sarif_dummy_location () =
  let at = W2.Loc.make ~file:"m.w2" ~line:3 ~col:5 in
  let located = sarif [ diag ~loc:at "W001" "x" ] in
  Alcotest.(check bool) "a located result has locations" true
    (Tutil.contains located
       "\"locations\": [{\"physicalLocation\": {\"artifactLocation\": {\"uri\": \
        \"m.w2\"}, \"region\": {\"startLine\": 3, \"startColumn\": 5}}}]");
  Alcotest.(check bool) "a dummy-located result has none" false
    (Tutil.contains (sarif [ diag "W001" "x" ]) "locations")

let test_sarif_message_escaped () =
  Alcotest.(check bool) "[func] message with quote, backslash, newline" true
    (Tutil.contains
       (sarif [ diag ~func:"f" "W003" "say \"hi\\\" \nbye" ])
       "\"message\": {\"text\": \"[f] say \\\"hi\\\\\\\" \\nbye\"}")

let test_sarif_empty () =
  Alcotest.(check bool) "empty results" true
    (Tutil.contains (sarif []) "\"results\": []}");
  Alcotest.(check bool) "empty rules" true
    (Tutil.contains (sarif []) "\"rules\": []")

let suites =
  [
    ( "json.oracles",
      [
        Alcotest.test_case "analyze --json/--sarif = oracle on the examples"
          `Quick test_module_documents;
        Alcotest.test_case "project --json/--sarif = oracle on generated projects"
          `Quick test_project_documents;
        Alcotest.test_case "simulate/profile documents and traces = oracle"
          `Quick test_run_documents;
        Alcotest.test_case "trace args: only canonical numbers are numbers"
          `Quick test_trace_arg_numbers;
      ] );
    ( "json.sarif",
      [
        Alcotest.test_case "version" `Quick test_sarif_version;
        Alcotest.test_case "rule ids sorted and unique" `Quick
          test_sarif_rules_sorted_unique;
        Alcotest.test_case "dummy location has no locations" `Quick
          test_sarif_dummy_location;
        Alcotest.test_case "message escaped" `Quick test_sarif_message_escaped;
        Alcotest.test_case "empty diagnostic list" `Quick test_sarif_empty;
      ] );
  ]
