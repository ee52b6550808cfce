(* Test-only oracles: the hand-rolled Printf/Buffer JSON writers of
   Depan, Modan, Critpath, Timings, Sarif and the Chrome trace exporter,
   as they were before every writer moved to the one Stats.Json
   printer.  test_json.ml checks that the library's documents parse to
   the same values (the trace: the same bytes). *)

let escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

module Sarif = struct
  open W2

  let spf = Printf.sprintf
  let version = "2.1.0"

  let rule_description = function
    | "W001" -> "Unused variable"
    | "W002" -> "Unused parameter"
    | "W003" -> "Dead store"
    | "W004" -> "Unreachable statement after a return"
    | "W005" -> "Assignment into an enclosing for-loop variable"
    | "W006" -> "Constant condition"
    | "W007" -> "Function never called from its section"
    | "W008" -> "Section global written by one function and accessed by a sibling"
    | "W009" -> "Channel with sends but no receives"
    | "W010" -> "Import declaration disagrees with the link"
    | "W011" -> "Cross-module write to a global another module localizes"
    | "W012" -> "Exported function never imported"
    | _ -> "warpcc diagnostic"

  let level_of = function
    | Diag.Note -> "note"
    | Diag.Warning -> "warning"
    | Diag.Error -> "error"

  let is_dummy (l : Loc.t) = l = Loc.dummy

  let to_string diags =
    let tool_name = "warpcc" and tool_version = "1.0.0" in
    let buf = Buffer.create 4096 in
    let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
    let codes =
      List.sort_uniq compare (List.map (fun d -> d.Diag.d_code) diags)
    in
    add "{\n";
    add "  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n";
    add "  \"version\": \"%s\",\n" version;
    add "  \"runs\": [\n    {\n";
    add "      \"tool\": {\n        \"driver\": {\n";
    add "          \"name\": \"%s\",\n" (escape tool_name);
    add "          \"version\": \"%s\",\n" (escape tool_version);
    add "          \"informationUri\": \"https://github.com/warpcc/warpcc\",\n";
    add "          \"rules\": [\n";
    List.iteri
      (fun i code ->
        add
          "            {\"id\": \"%s\", \"shortDescription\": {\"text\": \"%s\"}}%s\n"
          (escape code)
          (escape (rule_description code))
          (if i = List.length codes - 1 then "" else ","))
      codes;
    add "          ]\n        }\n      },\n";
    add "      \"results\": [\n";
    List.iteri
      (fun i (d : Diag.t) ->
        add "        {\n";
        add "          \"ruleId\": \"%s\",\n" (escape d.Diag.d_code);
        add "          \"level\": \"%s\",\n" (level_of d.Diag.d_severity);
        add "          \"message\": {\"text\": \"%s\"}%s\n"
          (escape
             (match d.Diag.d_func with
             | Some f -> spf "[%s] %s" f d.Diag.d_message
             | None -> d.Diag.d_message))
          (if is_dummy d.Diag.d_loc then "" else ",");
        if not (is_dummy d.Diag.d_loc) then begin
          add "          \"locations\": [\n";
          add "            {\"physicalLocation\": {\n";
          add "              \"artifactLocation\": {\"uri\": \"%s\"},\n"
            (escape d.Diag.d_loc.Loc.file);
          add "              \"region\": {\"startLine\": %d, \"startColumn\": %d}\n"
            (max 1 d.Diag.d_loc.Loc.line)
            (max 1 d.Diag.d_loc.Loc.col);
          add "            }}\n          ]\n"
        end;
        add "        }%s\n" (if i = List.length diags - 1 then "" else ","))
      diags;
    add "      ]\n    }\n  ]\n}\n";
    Buffer.contents buf
end

module Depan = struct
  open Analysis.Depan

  let json_escape = escape

  let json_strings items =
    "[" ^ String.concat ", "
            (List.map (fun s -> Printf.sprintf "\"%s\"" (json_escape s)) items)
    ^ "]"

  let json_effects (e : effects) =
    Printf.sprintf
      "{\"global_reads\": %s, \"global_writes\": %s, \"sends\": %s, \
       \"recvs\": %s, \"calls\": %s, \"limited\": %b}"
      (json_strings e.greads) (json_strings e.gwrites)
      (json_strings (List.map W2.Ast.channel_to_string e.sends))
      (json_strings (List.map W2.Ast.channel_to_string e.recvs))
      (json_strings e.calls) e.limited

  let json_itv (i : Analysis.Absint.itv) =
    let bound = function Some n -> string_of_int n | None -> "null" in
    Printf.sprintf "{\"lo\": %s, \"hi\": %s}" (bound i.Analysis.Absint.lo)
      (bound i.Analysis.Absint.hi)

  let to_json (t : t) : string =
    let b = Buffer.create 4096 in
    Printf.bprintf b
      "{\n  \"schema\": \"warpcc-analyze/3\",\n  \"kind\": \"module\",\n\
      \  \"module\": \"%s\",\n\
      \  \"sound\": %b,\n  \"absint\": %b,\n  \"sections\": [\n"
      (json_escape t.dp_module) t.dp_sound t.dp_absint;
    let sections =
      List.map
        (fun si ->
          let funcs =
            Array.to_list si.si_funcs
            |> List.map (fun fi ->
                   Printf.sprintf
                     "        {\"name\": \"%s\", \"index\": %d, \"scc\": %d, \
                      \"arity\": %d, \"returns\": %b, \"inlinable\": %b,\n\
                     \         \"purity\": %s, \"summary_hash\": \"%s\", \
                      \"cost\": %s,\n\
                     \         \"direct\": %s,\n\
                     \         \"summary\": %s}"
                     (json_escape fi.fi_name) fi.fi_index fi.fi_scc fi.fi_arity
                     fi.fi_returns fi.fi_inlinable
                     (match fi.fi_purity with
                     | Some p ->
                       Printf.sprintf "\"%s\"" (Analysis.Absint.purity_to_string p)
                     | None -> "null")
                     fi.fi_hash
                     (match fi.fi_cost with
                     | Some c -> json_itv c
                     | None -> "null")
                     (json_effects fi.fi_direct)
                     (json_effects fi.fi_summary))
            |> String.concat ",\n"
          in
          let edges =
            List.map
              (fun (from_name, to_name, reasons) ->
                Printf.sprintf
                  "        {\"from\": \"%s\", \"to\": \"%s\", \"reasons\": %s}"
                  (json_escape from_name) (json_escape to_name)
                  (json_strings (List.map reason_to_string reasons)))
              (edges_by_name si)
            |> String.concat ",\n"
          in
          let pruned =
            List.map
              (fun (from_name, to_name, reason, by) ->
                Printf.sprintf
                  "        {\"from\": \"%s\", \"to\": \"%s\", \"reason\": \
                   \"%s\", \"refuted_by\": \"%s\"}"
                  (json_escape from_name) (json_escape to_name)
                  (json_escape (reason_to_string reason))
                  (refuter_to_string by))
              (pruned_by_name si)
            |> String.concat ",\n"
          in
          let levels =
            List.map
              (fun level ->
                json_strings
                  (List.map (fun i -> si.si_funcs.(i).fi_name) level))
              si.si_levels
            |> String.concat ", "
          in
          Printf.sprintf
            "    {\"name\": \"%s\", \"cells\": %d,\n\
            \     \"functions\": [\n%s\n      ],\n\
            \     \"edges\": [\n%s\n      ],\n\
            \     \"pruned\": [\n%s\n      ],\n\
            \     \"disjoint_globals\": %s,\n\
            \     \"levels\": [%s],\n\
            \     \"fixpoint_sweeps\": %d,\n\
            \     \"licensed_fraction\": %.6f}"
            (json_escape si.si_name) si.si_cells funcs
            (if si.si_edges = [] then "" else edges)
            (if si.si_pruned = [] then "" else pruned)
            (json_strings si.si_disjoint) levels si.si_fixpoint_sweeps
            (licensed_fraction si))
        t.dp_sections
    in
    Buffer.add_string b (String.concat ",\n" sections);
    Buffer.add_string b "\n  ]\n}\n";
    Buffer.contents b
end

module Modan = struct
  open W2
  open Analysis.Modan

  let json_strings = Depan.json_strings

  let json_escape = escape
  let spf = Printf.sprintf

  let to_json link =
    let buf = Buffer.create 4096 in
    let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
    add "{\n  \"schema\": \"warpcc-analyze/3\",\n  \"kind\": \"project\",\n";
    add "  \"modules\": [\n";
    List.iteri
      (fun i (m : module_summary) ->
        add "    {\"name\": \"%s\", \"file\": \"%s\", \"section\": \"%s\", \"cells\": %d,\n"
          (json_escape m.ms_module) (json_escape m.ms_file)
          (json_escape m.ms_section) m.ms_cells;
        add "     \"globals\": %s,\n" (json_strings m.ms_globals);
        add "     \"exports\": %s,\n"
          (json_strings (List.map fst m.ms_exports));
        add "     \"functions\": [\n";
        Array.iteri
          (fun j w ->
            add
              "       {\"name\": \"%s\", \"exported\": %b, \"xcalls\": %s, \"summary_hash\": \"%s\", \"key\": \"%s\"}%s\n"
              (json_escape w.ws_name) w.ws_exported (json_strings w.ws_xcalls)
              w.ws_hash w.ws_key
              (if j = Array.length m.ms_funcs - 1 then "" else ","))
          m.ms_funcs;
        add "     ],\n";
        add "     \"local_edges\": [%s]}%s\n"
          (String.concat ", "
             (List.map
                (fun (f, t, rs) ->
                  spf "{\"from\": \"%s\", \"to\": \"%s\", \"reasons\": %s}"
                    (json_escape f) (json_escape t)
                    (json_strings (List.map Analysis.Depan.reason_to_string rs)))
                m.ms_edges))
          (if i = List.length link.lk_modules - 1 then "" else ","))
      link.lk_modules;
    add "  ],\n";
    add "  \"order\": %s,\n" (json_strings link.lk_order);
    add "  \"sccs\": [%s],\n"
      (String.concat ", " (List.map json_strings link.lk_sccs));
    add "  \"missing\": [%s],\n"
      (String.concat ", "
         (List.map
            (fun (m, f) -> spf "[\"%s\", \"%s\"]" (json_escape m) (json_escape f))
            link.lk_missing));
    add "  \"edges\": [\n";
    List.iteri
      (fun i e ->
        add
          "    {\"from\": \"%s\", \"from_module\": \"%s\", \"to\": \"%s\", \"to_module\": \"%s\", \"confidence\": \"%s\", \"reasons\": %s}%s\n"
          (json_escape e.x_from) (json_escape e.x_from_module)
          (json_escape e.x_to) (json_escape e.x_to_module)
          (Analysis.Depan.confidence_to_string (xedge_confidence e))
          (json_strings (List.map xreason_to_string e.x_reasons))
          (if i = List.length link.lk_edges - 1 then "" else ","))
      link.lk_edges;
    add "  ],\n";
    add "  \"levels\": [%s],\n"
      (String.concat ", " (List.map json_strings link.lk_levels));
    add "  \"module_levels\": [%s],\n"
      (String.concat ", " (List.map json_strings link.lk_module_levels));
    add "  \"licensed_fraction\": %.6f,\n" link.lk_licensed;
    add "  \"diagnostics\": [\n";
    List.iteri
      (fun i (d : Diag.t) ->
        add
          "    {\"code\": \"%s\", \"severity\": \"%s\", \"file\": \"%s\", \"line\": %d, \"col\": %d, \"function\": %s, \"message\": \"%s\"}%s\n"
          d.Diag.d_code
          (Diag.severity_to_string d.Diag.d_severity)
          (json_escape d.Diag.d_loc.Loc.file) d.Diag.d_loc.Loc.line
          d.Diag.d_loc.Loc.col
          (match d.Diag.d_func with
          | Some f -> spf "\"%s\"" (json_escape f)
          | None -> "null")
          (json_escape d.Diag.d_message)
          (if i = List.length link.lk_diags - 1 then "" else ","))
      link.lk_diags;
    add "  ]\n}\n";
    Buffer.contents buf
end

module Critpath = struct
  open Parallel_cc.Critpath

  let json_escape = escape

  (* Buckets and elapsed print with %.17g so the exact-sum invariant
     survives the round-trip: a consumer can re-add the buckets in schema
     order and compare bit for bit (CI's profile-smoke job does). *)
  let to_json ?(module_name = "") ?(policy = "") ?(processors = 0) ?top:(k = 10)
      ?bound (p : profile) : string =
    let b = Buffer.create 4096 in
    let pr fmt = Printf.ksprintf (Buffer.add_string b) fmt in
    let f = Printf.sprintf "%.17g" in
    pr "{\n";
    pr "  \"schema\": \"warpcc-profile/1\",\n";
    pr "  \"module\": \"%s\",\n" (json_escape module_name);
    pr "  \"policy\": \"%s\",\n" (json_escape policy);
    pr "  \"processors\": %d,\n" processors;
    pr "  \"elapsed\": %s,\n" (f p.p_elapsed);
    pr "  \"buckets\": {\n";
    List.iteri
      (fun i (name, v) ->
        pr "    \"%s\": %s%s\n" name (f v)
          (if i = List.length p.p_buckets - 1 then "" else ","))
      p.p_buckets;
    pr "  },\n";
    pr "  \"cpu_by_tag\": {\n";
    let n_tags = List.length p.p_cpu_by_tag in
    List.iteri
      (fun i (tag, v) ->
        pr "    \"%s\": %s%s\n" (json_escape tag) (f v)
          (if i = n_tags - 1 then "" else ","))
      p.p_cpu_by_tag;
    pr "  },\n";
    pr "  \"critical_path\": [\n";
    let n_segs = List.length p.p_segments in
    List.iteri
      (fun i g ->
        pr
          "    {\"t0\": %s, \"t1\": %s, \"bucket\": \"%s\", \"track\": %d, \
           \"detail\": \"%s\", \"task\": %s}%s\n"
          (f g.g_t0) (f g.g_t1)
          (bucket_name g.g_bucket)
          g.g_track (json_escape g.g_detail)
          (match g.g_task with
          | Some l -> Printf.sprintf "\"%s\"" (json_escape l)
          | None -> "null")
          (if i = n_segs - 1 then "" else ","))
      p.p_segments;
    pr "  ],\n";
    pr "  \"dep_edges\": [%s],\n"
      (String.concat ", "
         (List.map
            (fun (a, c) ->
              Printf.sprintf "[\"%s\", \"%s\"]" (json_escape a) (json_escape c))
            p.p_dep_edges));
    pr "  \"top\": [\n";
    let hs = top ~k p in
    let n_hs = List.length hs in
    List.iteri
      (fun i h ->
        pr
          "    {\"label\": \"%s\", \"bucket\": \"%s\", \"reason\": \"%s\", \
           \"track\": %d, \"seconds\": %s, \"share\": %s}%s\n"
          (json_escape h.h_label) h.h_bucket (json_escape h.h_reason) h.h_track
          (f h.h_seconds) (f h.h_share)
          (if i = n_hs - 1 then "" else ","))
      hs;
    pr "  ],\n";
    pr "  \"what_if\": {\n";
    let ws = what_ifs p in
    let n_ws = List.length ws in
    List.iteri
      (fun i w ->
        pr "    \"%s\": {\"removed\": %s, \"elapsed\": %s, \"speedup\": %s}%s\n"
          (json_escape w.w_name) (f w.w_removed) (f w.w_elapsed)
          (if Float.is_finite w.w_speedup then f w.w_speedup else "null")
          (if i = n_ws - 1 then "" else ","))
      ws;
    pr "  }";
    (match bound with
    | None -> ()
    | Some d ->
      pr ",\n  \"dag_bound\": {\"max_levels\": %d, \"serial\": %s, \"chain\": %s, \
          \"speedup\": %s}"
        d.db_max_levels (f d.db_serial) (f d.db_chain) (f d.db_speedup));
    pr "\n}\n";
    Buffer.contents b
end

module Timings = struct
  open Parallel_cc.Timings

  let comparison_to_json (c : comparison) : string =
    let b = Buffer.create 1024 in
    let pr fmt = Printf.ksprintf (Buffer.add_string b) fmt in
    let f = Printf.sprintf "%.17g" in
    let run_json indent (r : run) =
      pr "%s{\n" indent;
      pr "%s  \"elapsed\": %s,\n" indent (f r.elapsed);
      pr "%s  \"master_cpu\": %s,\n" indent (f r.master_cpu);
      pr "%s  \"section_cpu\": %s,\n" indent (f r.section_cpu);
      pr "%s  \"extra_parse_cpu\": %s,\n" indent (f r.extra_parse_cpu);
      pr "%s  \"stations_used\": %d,\n" indent r.stations_used;
      pr "%s  \"dispatch_units\": %d,\n" indent r.dispatch_units;
      pr "%s  \"retries\": %d,\n" indent r.retries;
      pr "%s  \"stations_lost\": %d,\n" indent r.stations_lost;
      pr "%s  \"fallback_tasks\": %d,\n" indent r.fallback_tasks;
      pr "%s  \"wasted_cpu\": %s,\n" indent (f r.wasted_cpu);
      pr "%s  \"spec_dispatched\": %d,\n" indent r.spec_dispatched;
      pr "%s  \"spec_committed\": %d,\n" indent r.spec_committed;
      pr "%s  \"spec_rolled_back\": %d,\n" indent r.spec_rolled_back;
      pr "%s  \"cache_hits\": %d,\n" indent r.cache_hits;
      pr "%s  \"cache_misses\": %d,\n" indent r.cache_misses;
      pr "%s  \"cache_invalidated\": %d,\n" indent r.cache_invalidated;
      pr "%s  \"cpu_per_station\": [%s]\n" indent
        (String.concat ", " (List.map f r.cpu_per_station));
      pr "%s}" indent
    in
    pr "{\n";
    pr "  \"schema\": \"warpcc-simulate/3\",\n";
    pr "  \"processors\": %d,\n" c.processors;
    pr "  \"speedup\": %s,\n" (f c.speedup);
    pr "  \"total_overhead\": %s,\n" (f c.total_overhead);
    pr "  \"impl_overhead\": %s,\n" (f c.impl_overhead);
    pr "  \"sys_overhead\": %s,\n" (f c.sys_overhead);
    pr "  \"rel_total_overhead\": %s,\n" (f c.rel_total_overhead);
    pr "  \"rel_sys_overhead\": %s,\n" (f c.rel_sys_overhead);
    pr "  \"seq\":\n";
    run_json "  " c.seq;
    pr ",\n  \"par\":\n";
    run_json "  " c.par;
    pr "\n}\n";
    Buffer.contents b
end

module Trace = struct
  open Trace

  let json_escape = escape
  let usec t = t *. 1e6

  let add_args b args =
    Buffer.add_string b "{";
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_string b ", ";
        (* Emit numeric-looking values as JSON numbers so Perfetto can
           aggregate them. *)
        match float_of_string_opt v with
        | Some f when Float.is_finite f ->
          Buffer.add_string b (Printf.sprintf "\"%s\": %s" (json_escape k) v)
        | _ ->
          Buffer.add_string b
            (Printf.sprintf "\"%s\": \"%s\"" (json_escape k) (json_escape v)))
      args;
    Buffer.add_string b "}"

  let to_chrome_json ?(flows = []) t =
    let b = Buffer.create 4096 in
    let first = ref true in
    let sep () =
      if !first then first := false else Buffer.add_string b ",\n";
      Buffer.add_string b "    "
    in
    Buffer.add_string b "{\n  \"displayTimeUnit\": \"ms\",\n  \"traceEvents\": [\n";
    Buffer.add_string b
      "    {\"ph\": \"M\", \"name\": \"process_name\", \"pid\": 0, \"tid\": 0, \
       \"args\": {\"name\": \"warpcc simulated host\"}}";
    first := false;
    List.iteri
      (fun i track ->
        sep ();
        Buffer.add_string b
          (Printf.sprintf
             "{\"ph\": \"M\", \"name\": \"thread_name\", \"pid\": 0, \"tid\": %d, \
              \"args\": {\"name\": \"%s\"}}"
             track
             (json_escape (track_name track)));
        sep ();
        Buffer.add_string b
          (Printf.sprintf
             "{\"ph\": \"M\", \"name\": \"thread_sort_index\", \"pid\": 0, \
              \"tid\": %d, \"args\": {\"sort_index\": %d}}"
             track i))
      (used_tracks t);
    List.iter
      (fun (s : span) ->
        sep ();
        Buffer.add_string b
          (Printf.sprintf
             "{\"ph\": \"X\", \"name\": \"%s\", \"cat\": \"%s\", \"ts\": %.3f, \
              \"dur\": %.3f, \"pid\": 0, \"tid\": %d, \"args\": "
             (json_escape s.name) (json_escape s.cat) (usec s.t0)
             (usec (s.t1 -. s.t0))
             s.track);
        add_args b s.args;
        Buffer.add_string b "}")
      (spans t);
    List.iter
      (fun (i : instant) ->
        sep ();
        Buffer.add_string b
          (Printf.sprintf
             "{\"ph\": \"i\", \"s\": \"t\", \"name\": \"%s\", \"cat\": \"%s\", \
              \"ts\": %.3f, \"pid\": 0, \"tid\": %d, \"args\": "
             (json_escape i.i_name) (json_escape i.i_cat) (usec i.at) i.i_track);
        add_args b i.i_args;
        Buffer.add_string b "}")
      (instants t);
    (* Perfetto counter tracks: cluster-wide time series derived from
       the spans, so bottleneck shifts are visible at a glance. *)
    List.iter
      (fun (name, key, select) ->
        List.iter
          (fun (at, v) ->
            sep ();
            Buffer.add_string b
              (Printf.sprintf
                 "{\"ph\": \"C\", \"name\": \"%s\", \"pid\": 0, \"ts\": %.3f, \
                  \"args\": {\"%s\": %d}}"
                 name (usec at) key v))
          (counter_points t select))
      [
        ( "stations-busy", "busy",
          fun (s : span) -> s.cat = "cpu" && s.track < ether_track );
        ("pool-queue-depth", "waiting", fun (s : span) -> s.cat = "pool");
        ( "fs-in-flight", "requests",
          fun (s : span) -> s.cat = "net" && s.track = fs_track );
      ];
    List.iteri
      (fun i (from_track, from_t, to_track, to_t) ->
        (* A flow arrow: an "s"/"f" pair with a shared id, bound to the
           enclosing slices at each end. *)
        sep ();
        Buffer.add_string b
          (Printf.sprintf
             "{\"ph\": \"s\", \"id\": %d, \"name\": \"critical-path\", \"cat\": \
              \"critpath\", \"pid\": 0, \"tid\": %d, \"ts\": %.3f}"
             i from_track (usec from_t));
        sep ();
        Buffer.add_string b
          (Printf.sprintf
             "{\"ph\": \"f\", \"bp\": \"e\", \"id\": %d, \"name\": \
              \"critical-path\", \"cat\": \"critpath\", \"pid\": 0, \"tid\": %d, \
              \"ts\": %.3f}"
             i to_track (usec to_t)))
      flows;
    Buffer.add_string b "\n  ]\n}\n";
    Buffer.contents b
end
