(* warpcc — command-line driver for the Warp parallel compiler.

     warpcc [--lint] [--verify-ir] [--Werror] prog.w2 [more.w2 ...]
         Static checks only: parse, semantic check, optional source
         lint and optional IR verification (every optimization pass is
         followed by an invariant check).  Nothing is written.

     warpcc compile prog.w2 [-O2] [--lint] [--verify-ir] [--Werror]
            [--dump-ir] [--dump-asm] [-o dir]
         Run the four compiler phases over a W2 module and write one
         download module (.wobj) plus one I/O driver (.drv) per section.

     warpcc run prog.w2 --entry main --args 1,2 [--input-x 1.0,2.0]
         Compile and execute an entry function on the cycle-accurate
         cell simulator (or the whole array with --array).

     warpcc simulate prog.w2 [--processors N] [--sched POLICY]
            [--no-absint] [--static-cost] [--spec-budget N]
         Replay sequential and parallel compilation of the module on the
         simulated 1989 workstation network and report the speedup and
         overhead decomposition of the paper.

     warpcc analyze prog.w2 [--dot FILE] [--json FILE] [--sarif FILE]
            [--no-absint]
         Run the interprocedural dependence analyzer alone and print the
         per-section summaries, dependence edges, pruned edges and
         licensed-parallelism fraction (or emit Graphviz / JSON / SARIF).

     warpcc analyze --project dir/ [--dot FILE] [--json FILE]
            [--sarif FILE] [--Werror]
         Separately summarize every .w2 module in the directory against
         its import declarations only, then compose the summaries into
         the project-wide dependence DAG with the cross-module lints
         (W010 import mismatch, W011 cross-module global write, W012
         dead export).

   Exit codes (shared by every static path — check, compile, analyze):
     0    the module was accepted
     1    the module was rejected or compilation failed: parse or
          semantic errors, verifier findings, error-severity
          diagnostics, or any diagnostic at all under --Werror
     124+ command-line misuse (cmdliner's own codes)
*)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Write the document [text] builds to FILE, or to standard output for
   "-"; a file write is confirmed with "wrote FILE" and [note]. *)
let write_out ?(note = "") out text =
  match out with
  | None -> ()
  | Some "-" -> print_string (text ())
  | Some path ->
    Out_channel.with_open_text path (fun oc -> output_string oc (text ()));
    Printf.printf "wrote %s%s\n" path note

let trace_note tr =
  Printf.sprintf " (%d spans, %d instants, %d tracks)" (Trace.span_count tr)
    (Trace.instant_count tr)
    (List.length (Trace.used_tracks tr))

(* Every rejection path exits 1 — parse, semantic, lint-as-error and
   verifier failures alike — so scripts and CI can tell "module
   rejected" (1) apart from command-line misuse (cmdliner's 124+).
   Before this, `check` exited 1 but `compile --Werror` surfaced the
   same finding as cmdliner's generic 123. *)
let reject msg : (_, [ `Msg of string ]) result =
  prerr_endline ("warpcc: " ^ msg);
  exit 1

let or_compile_error f =
  try Ok (f ()) with
  | Driver.Compile.Compile_error msg -> reject msg
  | W2.Parser.Error (msg, loc) ->
    reject (Printf.sprintf "%s: %s" (W2.Loc.to_string loc) msg)
  | W2.Lexer.Error (msg, loc) ->
    reject (Printf.sprintf "%s: %s" (W2.Loc.to_string loc) msg)
  | Sys_error msg -> reject msg

(* --- shared flags --- *)

(* An integer argument in [lo, hi]: anything else is a usage error
   (exit 124), not a crash deeper in the compiler or the simulator. *)
let int_in lo hi =
  Arg.conv
    ( (fun s ->
        match int_of_string_opt s with
        | Some n when lo <= n && n <= hi -> Ok n
        | _ when hi = max_int ->
          Error (`Msg (Printf.sprintf "expected an integer >= %d, got %S" lo s))
        | _ ->
          Error
            (`Msg (Printf.sprintf "expected an integer in %d..%d, got %S" lo hi s))),
      Format.pp_print_int )

(* A number in [0, 1], the float counterpart of [int_in]. *)
let fraction =
  Arg.conv
    ( (fun s ->
        match float_of_string_opt s with
        | Some x when 0.0 <= x && x <= 1.0 -> Ok x
        | _ -> Error (`Msg (Printf.sprintf "expected a number in 0..1, got %S" s))),
      Format.pp_print_float )

(* The W2 source module every subcommand but [analyze] takes. *)
let file =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"W2 source module")

let level =
  Arg.(value & opt (int_in 0 3) 2 & info [ "O"; "opt-level" ] ~docv:"LEVEL"
         ~doc:"Optimization level (0-3)")

let lint_flag =
  Arg.(value & flag
       & info [ "lint" ] ~doc:"Run the source linter (phase 1) and print its warnings")

let verify_ir_flag =
  Arg.(value & flag
       & info [ "verify-ir" ]
           ~doc:"Verify IR invariants after every optimization pass (-verify-each)")

let werror_flag =
  Arg.(value & flag & info [ "Werror" ] ~doc:"Treat lint warnings as errors")

(* Print diagnostics (promoting warnings under --Werror); returns true
   when anything of error severity was printed. *)
let emit_diags ~werror diags =
  let diags = if werror then W2.Diag.promote_warnings diags else diags in
  List.iter (fun d -> prerr_endline (W2.Diag.to_string d)) diags;
  W2.Diag.has_errors diags

(* --- compile --- *)

let compile_cmd =
  let dump_ir =
    Arg.(value & flag & info [ "dump-ir" ] ~doc:"Print the optimized IR of every function")
  in
  let dump_asm =
    Arg.(value & flag & info [ "dump-asm" ] ~doc:"Print the scheduled wide code")
  in
  let out_dir =
    Arg.(value & opt string "." & info [ "o"; "output" ] ~docv:"DIR"
           ~doc:"Directory for .wobj and .drv outputs")
  in
  let action file level lint verify_ir werror dump_ir dump_asm out_dir =
    or_compile_error (fun () ->
        let source = read_file file in
        (if dump_ir then begin
           let m = W2.Parser.module_of_string ~file source in
           W2.Semcheck.check_module_exn m;
           List.iter
             (fun sec ->
               List.iter
                 (fun f ->
                   ignore (Midend.Opt.optimize ~level ~verify_each:verify_ir f);
                   print_string (Midend.Ir.func_to_string f))
                 sec.Midend.Ir.funcs)
             (Midend.Lower.lower_module m)
         end);
        let mw =
          Driver.Compile.compile_source ~level ~verify_each:verify_ir ~file source
        in
        (if lint || werror then
           if emit_diags ~werror (Driver.Compile.all_diags mw) then
             raise
               (Driver.Compile.Compile_error
                  (if werror then "diagnostics treated as errors (--Werror)"
                   else "error diagnostics emitted")));
        List.iter
          (fun (sw : Driver.Compile.section_work) ->
            let base = Filename.concat out_dir (mw.Driver.Compile.mw_name ^ "." ^ sw.Driver.Compile.sw_name) in
            let obj = base ^ ".wobj" in
            let drv = base ^ ".drv" in
            let oc = open_out_bin obj in
            output_string oc (Warp.Asm.encode sw.Driver.Compile.sw_image);
            close_out oc;
            let oc = open_out drv in
            output_string oc (Warp.Iodriver.to_string sw.Driver.Compile.sw_driver);
            close_out oc;
            (if dump_asm then
               Array.iter
                 (fun f -> print_string (Warp.Mcode.mfunc_to_string f))
                 sw.Driver.Compile.sw_image.Warp.Mcode.funcs);
            (match Warp.Verify.image sw.Driver.Compile.sw_image with
            | [] -> ()
            | violations ->
              List.iter
                (fun v -> prerr_endline ("verifier: " ^ Warp.Verify.violation_to_string v))
                violations;
              raise (Driver.Compile.Compile_error "generated code failed verification"));
            Printf.printf "section %-12s %4d wides %6d bytes -> %s\n"
              sw.Driver.Compile.sw_name
              (Warp.Mcode.image_wide_count sw.Driver.Compile.sw_image)
              sw.Driver.Compile.sw_image_bytes obj)
          mw.Driver.Compile.mw_sections;
        List.iter
          (fun (fw : Driver.Compile.func_work) ->
            Printf.printf
              "  %-16s %4d loc  ir=%-5d opt-work=%-8d sched-work=%-8d wides=%-5d%s\n"
              fw.Driver.Compile.fw_name fw.Driver.Compile.fw_loc
              fw.Driver.Compile.fw_ir_instrs fw.Driver.Compile.fw_opt_work
              fw.Driver.Compile.fw_sched_work fw.Driver.Compile.fw_wides
              (if fw.Driver.Compile.fw_pipelined > 0 then "  [software-pipelined]" else ""))
          (Driver.Compile.all_funcs mw))
  in
  let term =
    Term.(
      term_result
        (const action $ file $ level $ lint_flag $ verify_ir_flag $ werror_flag
        $ dump_ir $ dump_asm $ out_dir))
  in
  Cmd.v (Cmd.info "compile" ~doc:"Compile a W2 module to Warp download modules") term

(* --- check --- *)

(* Static checks for one file; returns false when anything failed.
   Shared by the `check` subcommand and the default (no-subcommand)
   invocation: warpcc [--lint] [--verify-ir] [--Werror] FILE... *)
let static_check ~lint ~verify_ir ~werror ~level file =
  let source = read_file file in
  let m = W2.Parser.module_of_string ~file source in
  match W2.Semcheck.check_module m with
  | _ :: _ as errors ->
    List.iter (fun e -> prerr_endline (W2.Semcheck.error_to_string e)) errors;
    false
  | [] ->
    (* One analyzer pass feeds both the coupling lints (W008/W009) and
       the summary-backed call checks below — the same single
       diagnostics channel Driver.Compile uses, so `check` and
       `compile` agree on what they report and nothing is printed
       twice. *)
    let analysis = if lint || verify_ir then Some (Analysis.Depan.analyze m) else None in
    let lint_failed =
      if lint then
        let coupling =
          match analysis with Some t -> Analysis.Depan.lint t | None -> []
        in
        emit_diags ~werror (W2.Diag.sort (coupling @ W2.Lint.lint_module m))
      else false
    in
    let violations =
      if verify_ir then
        let dp_sections =
          match analysis with
          | Some t -> List.map (fun si -> Some si) t.Analysis.Depan.dp_sections
          | None -> List.map (fun _ -> None) m.W2.Ast.sections
        in
        List.concat
          (List.map2
             (fun si sec ->
               try
                 ignore (Midend.Opt.optimize_section ~level ~verify_each:true sec);
                 (* The per-pass checks cover each function; what remains
                    is the cross-function call agreement, checked both
                    structurally and against the analyzer's call graph. *)
                 Midend.Irverify.check_calls sec
                 @ (match si with
                   | Some si -> Analysis.Depan.check_ir_calls si sec
                   | None -> [])
               with Midend.Irverify.Invalid violations -> violations)
             dp_sections
             (Midend.Lower.lower_module m))
      else []
    in
    List.iter
      (fun v ->
        prerr_endline ("verify-ir: " ^ Midend.Irverify.violation_to_string v))
      violations;
    if violations = [] && not lint_failed then begin
      Printf.printf "%s: %d section(s), %d function(s), %d line(s) — ok%s%s\n"
        m.W2.Ast.mname
        (List.length m.W2.Ast.sections)
        (W2.Ast.func_count m)
        (W2.Pretty.source_lines source)
        (if lint then " [lint]" else "")
        (if verify_ir then " [verify-ir]" else "");
      true
    end
    else false

let static_check_action files lint verify_ir werror level =
  or_compile_error (fun () ->
      if files = [] then
        raise (Driver.Compile.Compile_error "no input files (see warpcc --help)");
      let ok =
        List.fold_left
          (fun ok file -> static_check ~lint ~verify_ir ~werror ~level file && ok)
          true files
      in
      if not ok then exit 1)

let check_cmd =
  let action file lint verify_ir werror level =
    static_check_action [ file ] lint verify_ir werror level
  in
  let term =
    Term.(
      term_result
        (const action $ file $ lint_flag $ verify_ir_flag $ werror_flag $ level))
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:"Run the static checks (phase 1, plus --lint and --verify-ir)")
    term

(* --- analyze --- *)

(* Project mode: two passes so peak memory stays one module AST plus
   all interface summaries, no matter how many modules the project
   has.  Pass 1 parses every file but keeps only the module name and
   its import edges (the ASTs are dropped); pass 2 re-parses one file
   at a time in dependency order, checks it, distills the summary and
   drops the AST again before touching the next file. *)
let project_heads dir =
  let files =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".w2")
    |> List.sort compare
    |> List.map (Filename.concat dir)
  in
  if files = [] then
    raise (Driver.Compile.Compile_error (dir ^ ": no .w2 files"));
  List.map
    (fun path ->
      let m = W2.Parser.module_of_string ~file:path (read_file path) in
      ( path,
        m.W2.Ast.mname,
        List.map (fun (im : W2.Ast.import_decl) -> im.W2.Ast.im_module) m.W2.Ast.imports ))
    files

(* Dependency order over the heads: providers first (Kahn), leftover
   members of import cycles appended in input order — [Modan.compose]
   reports the cycles themselves. *)
let project_order heads =
  let present = Hashtbl.create 16 in
  List.iter (fun (_, m, _) -> Hashtbl.replace present m ()) heads;
  let emitted = Hashtbl.create 16 in
  let result = ref [] in
  let rec sweep remaining =
    let ready, rest =
      List.partition
        (fun (_, _, imports) ->
          List.for_all
            (fun p -> (not (Hashtbl.mem present p)) || Hashtbl.mem emitted p)
            imports)
        remaining
    in
    if ready = [] then result := !result @ rest (* import cycle *)
    else begin
      List.iter (fun (_, m, _) -> Hashtbl.replace emitted m ()) ready;
      result := !result @ ready;
      if rest <> [] then sweep rest
    end
  in
  sweep heads;
  !result

let analyze_project ~dir ~sound ~max_tracked ~absint =
  let order = project_order (project_heads dir) in
  let summaries = ref [] in
  let module_diags = ref [] in
  List.iter
    (fun (path, _, _) ->
      let m = W2.Parser.module_of_string ~file:path (read_file path) in
      (match W2.Semcheck.check_module m with
      | [] -> ()
      | errors ->
        List.iter
          (fun e -> prerr_endline (W2.Semcheck.error_to_string e))
          errors;
        exit 1);
      let s =
        Analysis.Modan.summarize ~deps:!summaries ~sound ~max_tracked ~absint
          ~file:path m
      in
      (* Per-module source lints.  W007 ("never called from its
         section") is suppressed for exported functions: their callers
         live in other modules by design. *)
      let local =
        List.filter
          (fun (d : W2.Diag.t) ->
            not
              (d.W2.Diag.d_code = "W007"
              &&
              match d.W2.Diag.d_func with
              | Some f -> W2.Ast.exports_function m f
              | None -> false))
          (W2.Lint.lint_module m)
      in
      module_diags := !module_diags @ local @ Analysis.Modan.lint s;
      summaries := !summaries @ [ s ])
    order;
  let link = Analysis.Modan.compose !summaries in
  (link, W2.Diag.sort (!module_diags @ link.Analysis.Modan.lk_diags))

let analyze_cmd =
  let file =
    Arg.(value & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"W2 source module")
  in
  let project =
    Arg.(value & opt (some dir) None & info [ "project" ] ~docv:"DIR"
           ~doc:"Analyze a multi-module project: every .w2 file in DIR is \
                 separately summarized against its import declarations \
                 (peak memory is one module AST plus the interface \
                 summaries), then the summaries alone are composed into \
                 the project-wide dependence DAG with cross-module lints \
                 (W010-W012)")
  in
  let dot_out =
    Arg.(value & opt (some string) None & info [ "dot" ] ~docv:"FILE"
           ~doc:"Write the dependence DAG as Graphviz dot (\"-\" = stdout)")
  in
  let json_out =
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE"
           ~doc:"Write the full analysis as JSON, schema $(b,warpcc-analyze/3) \
                 (\"-\" = stdout)")
  in
  let sarif_out =
    Arg.(value & opt (some string) None & info [ "sarif" ] ~docv:"FILE"
           ~doc:"Write every diagnostic as a SARIF 2.1.0 log (\"-\" = stdout)")
  in
  let no_sound =
    Arg.(value & flag & info [ "no-sound" ]
           ~doc:"Drop the summary-limit edges added when an effect summary \
                 overflows --max-tracked (faster DAGs, no soundness promise)")
  in
  let max_tracked =
    Arg.(value & opt int 64 & info [ "max-tracked" ] ~docv:"N"
           ~doc:"Distinct globals tracked per effect-summary set before the \
                 summary is widened to \"anything\"")
  in
  let no_absint =
    Arg.(value & flag & info [ "no-absint" ]
           ~doc:"Skip the abstract-interpretation refinement (array regions, \
                 channel protocols, static costs); the result is bit-identical \
                 to the flow-insensitive analyzer")
  in
  let action file project dot_out json_out sarif_out no_sound max_tracked
      no_absint werror =
    or_compile_error (fun () ->
        let finish ~report ~dot ~json diags =
          (match (dot_out, json_out, sarif_out) with
          | None, None, None -> print_string (report ())
          | _ ->
            write_out dot_out dot;
            write_out json_out json;
            write_out sarif_out (fun () -> W2.Sarif.to_string diags));
          (* The analyzer's findings ride the same diagnostics channel
             as `check --lint`; under --Werror they reject the module
             with the shared exit code. *)
          if emit_diags ~werror diags then exit 1
        in
        match (project, file) with
        | Some _, Some _ ->
          prerr_endline "warpcc: analyze takes FILE or --project DIR, not both";
          exit 1
        | None, None ->
          prerr_endline "warpcc: analyze needs a FILE or --project DIR";
          exit 1
        | Some dir, None ->
          let link, diags =
            analyze_project ~dir ~sound:(not no_sound) ~max_tracked
              ~absint:(not no_absint)
          in
          finish
            ~report:(fun () -> Analysis.Modan.report link)
            ~dot:(fun () -> Analysis.Modan.to_dot link)
            ~json:(fun () -> Analysis.Modan.to_json link)
            diags
        | None, Some file ->
          let source = read_file file in
          let m = W2.Parser.module_of_string ~file source in
          (match W2.Semcheck.check_module m with
          | [] -> ()
          | errors ->
            List.iter
              (fun e -> prerr_endline (W2.Semcheck.error_to_string e))
              errors;
            exit 1);
          let t =
            Analysis.Depan.analyze ~sound:(not no_sound) ~max_tracked
              ~absint:(not no_absint) m
          in
          finish
            ~report:(fun () -> Analysis.Depan.report t)
            ~dot:(fun () -> Analysis.Depan.to_dot t)
            ~json:(fun () -> Analysis.Depan.to_json t)
            (Analysis.Depan.lint t))
  in
  let term =
    Term.(
      term_result
        (const action $ file $ project $ dot_out $ json_out $ sarif_out
        $ no_sound $ max_tracked $ no_absint $ werror_flag))
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:"Run the interprocedural dependence analyzer (call graph, effect \
             summaries, dependence DAG)")
    term

(* --- run --- *)

let parse_values s =
  if s = "" then []
  else
    String.split_on_char ',' s
    |> List.map (fun tok ->
           let tok = String.trim tok in
           match int_of_string_opt tok with
           | Some n -> Midend.Ir_interp.Vi n
           | None -> Midend.Ir_interp.Vf (float_of_string tok))

let run_cmd =
  let entry =
    Arg.(required & opt (some string) None & info [ "entry" ] ~docv:"NAME"
           ~doc:"Entry function")
  in
  let args_str =
    Arg.(value & opt string "" & info [ "args" ] ~docv:"V,V,..."
           ~doc:"Comma-separated arguments (ints or floats)")
  in
  let input_x =
    Arg.(value & opt string "" & info [ "input-x" ] ~docv:"V,V,..."
           ~doc:"Values fed to the X channel")
  in
  let array =
    Arg.(value & flag & info [ "array" ] ~doc:"Run on the whole cell array (X flows host -> cell0 -> ... -> host)")
  in
  let action file entry args_str input_x array level =
    or_compile_error (fun () ->
        let mw = Driver.Compile.compile_source ~level ~file (read_file file) in
        let sw =
          match
            List.find_opt
              (fun (sw : Driver.Compile.section_work) ->
                List.exists
                  (fun fw -> fw.Driver.Compile.fw_name = entry)
                  sw.Driver.Compile.sw_funcs)
              mw.Driver.Compile.mw_sections
          with
          | Some sw -> sw
          | None -> raise (Driver.Compile.Compile_error ("no function " ^ entry))
        in
        let image = sw.Driver.Compile.sw_image in
        let args = parse_values args_str in
        let inputs = parse_values input_x in
        if array then begin
          let result =
            Warp.Arraysim.run image ~name:entry ~args:(fun _ -> args) ~input_x:inputs ()
          in
          Printf.printf "cycles: %d\n" result.Warp.Arraysim.cycles;
          Array.iteri
            (fun i r ->
              Printf.printf "cell %d returned: %s\n" i
                (match r with
                | Some v -> Midend.Ir_interp.value_to_string v
                | None -> "(nothing)"))
            result.Warp.Arraysim.returns;
          List.iter
            (fun v -> Printf.printf "host X <- %s\n" (Midend.Ir_interp.value_to_string v))
            result.Warp.Arraysim.host_x
        end
        else begin
          let ports, outputs = Warp.Cellsim.script_ports ~input_x:inputs ~input_y:[] in
          let result, cycles = Warp.Cellsim.run ~ports image ~name:entry ~args in
          Printf.printf "cycles: %d\n" cycles;
          (match result with
          | Some v -> Printf.printf "result: %s\n" (Midend.Ir_interp.value_to_string v)
          | None -> print_endline "result: (nothing)");
          let out_x, out_y = outputs () in
          List.iter
            (fun v -> Printf.printf "X -> %s\n" (Midend.Ir_interp.value_to_string v))
            out_x;
          List.iter
            (fun v -> Printf.printf "Y -> %s\n" (Midend.Ir_interp.value_to_string v))
            out_y
        end)
  in
  let term =
    Term.(term_result (const action $ file $ entry $ args_str $ input_x $ array $ level))
  in
  Cmd.v (Cmd.info "run" ~doc:"Compile and execute on the cycle simulator") term

(* --- simulate --- *)

(* Replay arguments shared by [simulate] and [profile]. *)

let processors =
  Arg.(value & opt (some (int_in 1 max_int)) None
       & info [ "processors"; "p" ] ~docv:"N"
           ~doc:"Workstations for function masters, at least 1 (default: one \
                 per function)")

let fault_seed =
  Arg.(value & opt int 0 & info [ "fault-seed" ] ~docv:"SEED"
         ~doc:"Seed of the injected fault plan (0 = no faults unless --fault-rate is given)")

let fault_rate =
  Arg.(value & opt (some fraction) None & info [ "fault-rate" ] ~docv:"RATE"
         ~doc:"Fault rate in [0,1]: fraction of pool stations hit by crashes/reclaims/slowdowns (0.5 if only --fault-seed is given)")

let retries =
  Arg.(value & opt (int_in 0 max_int) 2 & info [ "retries" ] ~docv:"N"
         ~doc:"Re-dispatches per task before sequential fallback, at least 0")

let spec_budget =
  Arg.(value
       & opt (int_in 1 max_int)
           Parallel_cc.Config.default.Parallel_cc.Config.spec_budget
       & info [ "spec-budget" ] ~docv:"N"
           ~doc:"Misspeculations (speculative-attempt aborts) per task \
                 before its speculative edges harden to gated dispatch \
                 under $(b,--sched dag+spec); at least 1 (for no \
                 speculation, use $(b,--sched dag+lpt))")

let sched =
  let policies =
    List.map
      (fun p -> (Parallel_cc.Sched.policy_name p, p))
      Parallel_cc.Sched.policies
  in
  Arg.(value & opt (enum policies) Parallel_cc.Sched.Fcfs
       & info [ "sched" ] ~docv:"POLICY"
           ~doc:"Dispatch policy: $(b,fcfs) (the paper's first-come \
                 first-served order), $(b,lpt) (longest processing time \
                 first within each section), $(b,lpt+batch) (LPT plus \
                 batching of tiny functions into one dispatch unit), \
                 $(b,dag) (topological dispatch gated on the depan \
                 dependence DAG; identical to fcfs when the DAG has no \
                 edges), $(b,dag+lpt) (dag with LPT ordering and tiny \
                 batching inside each antichain level), or $(b,dag+spec) \
                 (dag+lpt that dispatches past speculative dependence \
                 edges immediately, staging outputs and committing or \
                 rolling back when the predecessors write back; see \
                 $(b,--spec-budget))")

let trace_out =
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
         ~doc:"Replay one traced parallel run and write it as Chrome \
               trace-event JSON (load in Perfetto or chrome://tracing; \
               \"-\" = stdout)")

let gantt =
  Arg.(value & flag & info [ "gantt" ]
         ~doc:"Print an ASCII Gantt timeline of the traced run")

let metrics =
  Arg.(value & flag & info [ "metrics" ]
         ~doc:"Print the metrics derived from the traced run and its \
               overhead decomposition")

let json_out =
  Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE"
         ~doc:"Write the timings comparison as JSON (\"-\" = stdout)")

let no_absint =
  Arg.(value & flag & info [ "no-absint" ]
         ~doc:"Skip the abstract-interpretation refinement in the phase-1 \
               dependence analysis: the DAG keeps every flow-insensitive \
               edge and all timings are bit-identical to the pre-absint \
               compiler")

let static_cost =
  Arg.(value & flag & info [ "static-cost" ]
         ~doc:"Rank and batch tasks by the abstract interpretation's \
               statically bounded cost instead of the measured work units \
               (no effect under $(b,--sched fcfs))")

let use_cache =
  Arg.(value & flag & info [ "cache" ]
         ~doc:"After the comparison, replay a cold/warm/edited trio of \
               parallel runs against one content-addressed compile cache \
               (docs/CACHING.md) and print each run's hit/miss counters")

(* The replay [simulate] and [profile] share, so the profiled trace is
   the trace [simulate --trace] writes: the compiled module, its plan
   on the requested processors, the parallel runs' configuration and,
   when a fault was asked for, the seeded fault plan sized by a
   fault-free run ([fault_free]). *)
type replay = {
  file : string;
  compile : string -> Driver.Compile.module_work;
      (* a source text at the requested level and analysis *)
  mw : Driver.Compile.module_work;
  processors : int option;
  plan : Parallel_cc.Plan.t;
  n_fm : int; (* function-master stations *)
  cfg : Parallel_cc.Config.t; (* fault-free *)
  fault_seed : int; (* the seed the fault plan was drawn from *)
  faults : Netsim.Fault.plan;
  fault_free : Parallel_cc.Timings.run option;
}

let replay_term =
  let setup file processors level fault_seed fault_rate retries sched
      no_absint static_cost spec_budget () =
    let open Parallel_cc in
    let compile =
      Driver.Compile.compile_source ~level ~file ~absint:(not no_absint)
    in
    let mw = compile (read_file file) in
    let plan, n_fm = Plan.for_processors ?processors mw in
    let cfg =
      {
        Config.default with
        Config.sched_policy = sched;
        static_cost;
        spec_budget;
        stations = n_fm + 1;
        noise_seed = 1 + (17 * n_fm);
        retry_budget = retries;
      }
    in
    let seed = if fault_seed = 0 then 1 else fault_seed in
    let faults, fault_free =
      if fault_seed = 0 && fault_rate = None then (Netsim.Fault.none, None)
      else
        let free = (Parrun.run cfg mw plan).Parrun.run in
        ( Netsim.Fault.random ~seed ~stations:(n_fm + 1)
            ~rate:(Option.value fault_rate ~default:0.5)
            ~horizon:(free.Timings.elapsed *. 1.5) (),
          Some free )
    in
    {
      file;
      compile;
      mw;
      processors;
      plan;
      n_fm;
      cfg;
      fault_seed = seed;
      faults;
      fault_free;
    }
  in
  Term.(
    const setup $ file $ processors $ level $ fault_seed $ fault_rate
    $ retries $ sched $ no_absint $ static_cost $ spec_budget)

let simulate_cmd =
  let action replay trace_out gantt metrics json_out use_cache =
    or_compile_error (fun () ->
        let { file; compile; mw; processors; plan; n_fm; cfg; fault_seed; faults;
              fault_free } =
          replay ()
        in
        let open Parallel_cc in
        let c = Experiment.measure ~cfg ?processors mw in
        Printf.printf "module %s: %d function(s), %d line(s)\n"
          mw.Driver.Compile.mw_name
          (List.length (Driver.Compile.all_funcs mw))
          mw.Driver.Compile.mw_loc;
        Printf.printf "sequential elapsed : %8.1f s\n" c.Timings.seq.Timings.elapsed;
        Printf.printf "parallel elapsed   : %8.1f s  (%d processors)\n"
          c.Timings.par.Timings.elapsed c.Timings.processors;
        Printf.printf "dispatch units     : %8d  (--sched %s)\n"
          c.Timings.par.Timings.dispatch_units
          (Sched.policy_name cfg.Config.sched_policy);
        (if Sched.gating cfg.Config.sched_policy = Sched.Proven then
           Printf.printf
             "speculation        : %8d dispatched, %d committed, %d rolled \
              back  (budget %d per task)\n"
             c.Timings.par.Timings.spec_dispatched
             c.Timings.par.Timings.spec_committed
             c.Timings.par.Timings.spec_rolled_back
             cfg.Config.spec_budget);
        Printf.printf "speedup            : %8.2f\n" c.Timings.speedup;
        Printf.printf "total overhead     : %8.1f s (%.1f%% of parallel elapsed)\n"
          c.Timings.total_overhead c.Timings.rel_total_overhead;
        Printf.printf "  implementation   : %8.1f s\n" c.Timings.impl_overhead;
        Printf.printf "  system           : %8.1f s (%.1f%%)\n" c.Timings.sys_overhead
          c.Timings.rel_sys_overhead;
        Printf.printf "per-station CPU (s): %s\n"
          (String.concat ", "
             (List.map (Printf.sprintf "%.0f") c.Timings.par.Timings.cpu_per_station));
        write_out json_out (fun () -> Timings.comparison_to_json c);
        (match fault_free with
        | Some free ->
          let faulty =
            (Parrun.run { cfg with Config.faults } mw plan).Parrun.run
          in
          Printf.printf "\nfault injection (seed %d):\n" fault_seed;
          List.iter
            (fun line -> Printf.printf "  %s\n" line)
            (Netsim.Fault.describe faults);
          Printf.printf
            "fault-free elapsed : %8.1f s  (noise seed %d, the run the faults \
             are measured against)\n"
            free.Timings.elapsed cfg.Config.noise_seed;
          Printf.printf "faulty elapsed     : %8.1f s  (%.2fx fault-free)\n"
            faulty.Timings.elapsed
            (faulty.Timings.elapsed /. free.Timings.elapsed);
          Printf.printf "retries            : %8d\n" faulty.Timings.retries;
          Printf.printf "stations lost      : %8d\n" faulty.Timings.stations_lost;
          Printf.printf "fallback tasks     : %8d  (budget %d per task)\n"
            faulty.Timings.fallback_tasks cfg.Config.retry_budget;
          Printf.printf "wasted CPU         : %8.1f s\n" faulty.Timings.wasted_cpu
        | None -> ());
        if trace_out <> None || gantt || metrics then begin
          (* One traced parallel run with the span sink wired in. *)
          let tr = Trace.create () in
          let traced =
            (Parrun.run { cfg with Config.faults; trace = tr } mw plan).Parrun.run
          in
          write_out ~note:(trace_note tr) trace_out (fun () ->
              Trace.to_chrome_json tr);
          if gantt then begin
            print_newline ();
            Stats.Table.print (Trace.gantt tr)
          end;
          if metrics then begin
            print_newline ();
            Stats.Table.print (Metrics.to_table (Metrics.of_trace tr));
            print_newline ();
            Stats.Table.print
              (Timings.comparison_table
                 (Timings.compare_runs ~processors:n_fm ~seq:c.Timings.seq
                    ~par:traced));
            Printf.printf "traced elapsed     : %8.1f s\n" traced.Timings.elapsed
          end
        end;
        if use_cache then begin
          (* Cold/warm/one-edit trio against a single store; the runs
             above stay cache-free, so everything printed before this
             block is bit-identical with or without --cache. *)
          let store = Cache.create () in
          let ccfg = { cfg with Config.cache = Some store } in
          let play mw' =
            (Parrun.run ccfg mw' (fst (Plan.for_processors ?processors mw')))
              .Parrun.run
          in
          let cold = play mw in
          let warm = play mw in
          let edited = Experiment.widest_edit mw in
          let edited_src =
            let m = W2.Parser.module_of_string ~file (read_file file) in
            match W2.Gen.touch_in m edited with
            | m' -> W2.Pretty.module_to_string m'
            | exception Invalid_argument msg ->
              raise (Driver.Compile.Compile_error msg)
          in
          let mw_edit = compile edited_src in
          let edit = play mw_edit in
          let closure =
            Experiment.edit_closure mw_edit.Driver.Compile.mw_analysis edited
          in
          let line name (r : Timings.run) extra =
            Printf.printf "%-19s: %8.1f s  hits=%d misses=%d invalidated=%d%s\n"
              name r.Timings.elapsed r.Timings.cache_hits
              r.Timings.cache_misses r.Timings.cache_invalidated extra
          in
          Printf.printf "\ncompile cache (one shared store; docs/CACHING.md):\n";
          line "cache cold" cold "";
          line "cache warm" warm
            (Printf.sprintf "  (%.2fx cold)"
               (cold.Timings.elapsed /. warm.Timings.elapsed));
          line "cache edit" edit
            (Printf.sprintf "  (edited %s, closure %d)" edited closure);
          Printf.printf "cache store        : %8d artifact(s), %.0f bytes\n"
            (Cache.size store)
            (List.fold_left (fun a (_, b) -> a +. b) 0.0 (Cache.entries store))
        end)
  in
  let term =
    Term.(
      term_result
        (const action $ replay_term $ trace_out $ gantt $ metrics $ json_out
        $ use_cache))
  in
  Cmd.v
    (Cmd.info "simulate"
       ~doc:"Replay sequential vs parallel compilation on the simulated network")
    term

(* --- profile --- *)

let profile_cmd =
  let top_k =
    Arg.(value & opt (int_in 1 max_int) 10 & info [ "top" ] ~docv:"N"
           ~doc:"Rows of the bottleneck report, at least 1")
  in
  let what_if =
    Arg.(value & flag & info [ "what-if" ]
           ~doc:"Print the what-if upper bounds (free comms, infinite \
                 stations, zero faults, perfect speculation) next to the \
                 dependence-DAG bound from the phase-1 analysis")
  in
  let prof_json =
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE"
           ~doc:"Write the profile as JSON, schema warpcc-profile/1 \
                 (\"-\" = stdout)")
  in
  let prof_trace =
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
           ~doc:"Write the profiled run as Chrome trace-event JSON with the \
                 critical path rendered as flow arrows between tracks \
                 (\"-\" = stdout)")
  in
  let action replay top_k what_if prof_json prof_trace =
    or_compile_error (fun () ->
        let { mw; plan; n_fm; cfg; faults; _ } = replay () in
        let open Parallel_cc in
        let sched = cfg.Config.sched_policy in
        let tr = Trace.create () in
        let { Parrun.run; scheduled = splan; _ } =
          Parrun.run { cfg with Config.faults; trace = tr } mw plan
        in
        let p =
          Critpath.of_trace ~plan:splan ~elapsed:run.Timings.elapsed tr
        in
        Critpath.assert_exact p;
        let bound = Critpath.dag_bound ~cost:cfg.Config.cost mw in
        Printf.printf
          "module %s: %d function(s), %d dispatch task(s), %d station(s), \
           --sched %s\n"
          mw.Driver.Compile.mw_name
          (List.length (Driver.Compile.all_funcs mw))
          (Plan.task_count splan) (n_fm + 1) (Sched.policy_name sched);
        Printf.printf "elapsed            : %10.3f s  (%d critical-path segment(s))\n"
          p.Critpath.p_elapsed
          (List.length p.Critpath.p_segments);
        (if p.Critpath.p_dep_edges <> [] then
           Printf.printf "dependence edges   : %s\n"
             (String.concat ", "
                (List.map
                   (fun (a, b) -> a ^ " -> " ^ b)
                   p.Critpath.p_dep_edges)));
        print_newline ();
        Stats.Table.print (Critpath.bucket_table p);
        print_newline ();
        Stats.Table.print (Critpath.top_table ~k:top_k p);
        if what_if then begin
          print_newline ();
          Stats.Table.print (Critpath.whatif_table ~bound p)
        end;
        let json () =
          Critpath.to_json ~module_name:mw.Driver.Compile.mw_name
            ~policy:(Sched.policy_name sched) ~processors:n_fm ~top:top_k
            ~bound p
        in
        write_out prof_json json;
        write_out ~note:(trace_note tr) prof_trace (fun () ->
            Trace.to_chrome_json ~flows:(Critpath.path_flows p) tr))
  in
  let term =
    Term.(
      term_result
        (const action $ replay_term $ top_k $ what_if $ prof_json
        $ prof_trace))
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:"Replay one traced parallel run and attribute every second of \
             its elapsed time to a bottleneck bucket along the critical path")
    term

let () =
  let doc = "parallel compiler for a Warp-like systolic array" in
  let info = Cmd.info "warpcc" ~version:"1.0.0" ~doc in
  (* Without a subcommand, warpcc runs the static checks over any
     number of files: warpcc --verify-ir --lint examples/*.w2 *)
  let default =
    let files =
      Arg.(value & pos_all file [] & info [] ~docv:"FILE" ~doc:"W2 source modules")
    in
    Term.(
      term_result
        (const static_check_action $ files $ lint_flag $ verify_ir_flag
        $ werror_flag $ level))
  in
  exit
    (Cmd.eval
       (Cmd.group ~default info
          [ check_cmd; compile_cmd; analyze_cmd; run_cmd; simulate_cmd; profile_cmd ]))
