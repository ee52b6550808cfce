(* Real-clock benchmark harness for warpcc (see README.md).

   One run builds a seeded corpus for its workload, then repeats rounds
   of the four user-facing operations until the time budget is spent:

   - compile: [Driver.Compile.compile_source] on one module, then the
     per-section image verification, encoding and I/O-driver rendering
     that `warpcc compile` writes out;
   - analyze-project: what `warpcc analyze --project DIR --json` does
     to a project's sources, minus the file I/O: a parse of every
     module for its imports, then in dependency order a parse,
     [Modan.summarize] and the module lints per module, [Modan.compose]
     and the JSON rendering;
   - simulate: [Experiment.measure] on one compiled module, the
     sequential-versus-parallel replay on the simulated network that
     `warpcc simulate` reports;
   - par-compile: [Domains.compile_parallel] with two worker domains,
     paired with the same phases run on the calling domain alone.

   An untraced run times every operation through the program's own
   entry points and reports end-to-end medians.  A traced run makes the
   same layer calls one at a time, each under a span, and reports the
   per-layer self time, allocation and work counts per round instead. *)

let now () = Monotonic_clock.now ()
let ms_between t0 t1 = Int64.to_float (Int64.sub t1 t0) /. 1e6
let ms_since t0 = ms_between t0 (now ())

exception Wrong of string

let wrong fmt = Printf.ksprintf (fun s -> raise (Wrong s)) fmt

(* --- spans --- *)

type span = {
  id : int;
  parent : int; (* -1 for an operation's root span *)
  round : int;
  name : string;
  start : int64;
  stop : int64;
  words : float; (* minor-heap words this domain allocated meanwhile *)
}

let tracing = ref false
let round = ref 0
let spans = ref []
let open_spans = ref []
let next_span = ref 0

let span name f =
  if not !tracing then f ()
  else begin
    let id = !next_span in
    incr next_span;
    let parent = match !open_spans with p :: _ -> p | [] -> -1 in
    open_spans := id :: !open_spans;
    let words = Gc.minor_words () in
    let start = now () in
    Fun.protect f ~finally:(fun () ->
        let stop = now () in
        let words = Gc.minor_words () -. words in
        open_spans := List.tl !open_spans;
        spans := { id; parent; round = !round; name; start; stop; words } :: !spans)
  end

(* Work counters bumped by the traced layer calls. *)
let counts : (string, float) Hashtbl.t = Hashtbl.create 16

let count name v =
  if !tracing then
    Hashtbl.replace counts name
      (v +. Option.value ~default:0. (Hashtbl.find_opt counts name))

(* Self time (ms) and self allocation (words) per span name: each
   span's totals minus what its direct children cover. *)
let self_totals () =
  let child_ms = Array.make !next_span 0. in
  let child_words = Array.make !next_span 0. in
  List.iter
    (fun s ->
      if s.parent >= 0 then begin
        child_ms.(s.parent) <- child_ms.(s.parent) +. ms_between s.start s.stop;
        child_words.(s.parent) <- child_words.(s.parent) +. s.words
      end)
    !spans;
  let totals = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let ms, words =
        Option.value ~default:(0., 0.) (Hashtbl.find_opt totals s.name)
      in
      Hashtbl.replace totals s.name
        ( ms +. ms_between s.start s.stop -. child_ms.(s.id),
          words +. s.words -. child_words.(s.id) ))
    !spans;
  totals

(* Chrome trace-event JSON, loadable in Perfetto. *)
let write_spans path =
  let ordered = List.sort (fun a b -> compare a.id b.id) !spans in
  let origin = match ordered with s :: _ -> s.start | [] -> 0L in
  let oc = open_out path in
  output_string oc "{\"traceEvents\":[\n";
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"round\":%d,\"words\":%.0f}}"
        (if i = 0 then "" else ",\n")
        s.name
        (1000. *. ms_between origin s.start)
        (1000. *. ms_between s.start s.stop)
        s.id s.parent s.round s.words)
    ordered;
  output_string oc "\n]}\n";
  close_out oc

(* --- workloads --- *)

type workload = {
  modules : int; (* corpus modules *)
  skeleton_lines : int list; (* one W2.Gen.function_of_lines function each *)
  random_sizes : int list; (* one W2.Gen.random_function each *)
  project_modules : int;
}

(* [fine] is the paper's f_tiny/f_small regime: many short functions,
   where the optimizer, the front end and the module summaries take
   most of the time and no function is worth a worker of its own.
   [coarse] takes the paper's size classes ([W2.Gen.size_lines]): one
   f_medium, one f_large and two f_small Monte-Carlo loop nests per
   module.  The f_medium and f_large functions each take about a
   hundred times the compile time of an f_small one, and about the same as
   each other, so under FCFS they fill one function master each and
   the code generator takes most of the time.  That gives a two-domain
   compile balanced work, which [fine] does not; whether it wins on
   a given machine is what [par_speedup] reports (see README.md).
   Every module of a corpus has the same size profile, so the seed
   moves the content but not the mix of sizes. *)
let workloads =
  [
    ( "fine",
      {
        modules = 24;
        skeleton_lines = [ 4; 9; 14; 19; 24; 30 ];
        random_sizes = [ 6; 11; 16 ];
        project_modules = 32;
      } );
    ( "coarse",
      {
        modules = 12;
        skeleton_lines = W2.Gen.(List.map size_lines [ Medium; Large; Small; Small ]);
        random_sizes = [];
        project_modules = 96;
      } );
  ]

let projects_per_corpus = 9
let shapes = [| W2.Gen.Layered; W2.Gen.Diamond; W2.Gen.Clustered |]

(* One single-section module.  The seed reaches the content through
   the function names, which seed the skeletons' kernel statements, and
   through the random functions' own seeds. *)
let corpus_module w ~seed i =
  let name j = Printf.sprintf "s%d_m%d_f%d" seed i j in
  let skeletons =
    List.mapi (fun j lines -> W2.Gen.function_of_lines ~name:(name j) lines) w.skeleton_lines
  in
  let randoms =
    List.mapi
      (fun j size ->
        let j = j + List.length skeletons in
        {
          (W2.Gen.random_function ~allow_channels:true
             ~seed:(Hashtbl.hash (seed, i, j))
             ~size ())
          with
          W2.Ast.fname = name j;
        })
      w.random_sizes
  in
  {
    W2.Ast.mname = Printf.sprintf "s%d_m%d" seed i;
    imports = [];
    exports = [];
    sections =
      [
        {
          W2.Ast.sname = "main";
          cells = 10;
          globals = [];
          funcs = skeletons @ randoms;
          secloc = W2.Loc.dummy;
        };
      ];
    mloc = W2.Loc.dummy;
  }

let project w ~seed p =
  W2.Gen.project_program ~modules:w.project_modules
    ~seed:((seed * 31) + p)
    ~shape:shapes.(p mod Array.length shapes)
    ()
  |> List.map (fun (m : W2.Ast.modul) ->
         (m.W2.Ast.mname ^ ".w2", W2.Pretty.module_to_string m))

(* --- operations --- *)

let level = 2
let workers = 2

let parse ~file src = span "parse" (fun () -> W2.Parser.module_of_string ~file src)

let semcheck m =
  span "semcheck" (fun () ->
      match W2.Semcheck.check_module m with
      | [] -> ()
      | e :: _ -> wrong "%s" (W2.Semcheck.error_to_string e))

let check_ir = function
  | [] -> ()
  | v :: _ -> wrong "%s" (Midend.Irverify.violation_to_string v)

(* What `warpcc compile` writes per section, after the image verifier
   passed: the encoded download module and the I/O driver. *)
type section_out = { sec : string; image : string; driver : string }

let emit sec image driver =
  span "emit" (fun () ->
      (match Warp.Verify.image image with
      | [] -> ()
      | v :: _ -> wrong "%s: %s" sec (Warp.Verify.violation_to_string v));
      {
        sec;
        image = Warp.Asm.encode image;
        driver = Warp.Iodriver.to_string driver;
      })

(* Phases 2 and 3 of one function: the driver's own entry point, or
   under tracing the same calls one at a time.  The traced branch must
   track [compile_function] in lib/driver/compile.ml call for call. *)
let compile_func ~func_rets ~(sec : W2.Ast.section) f =
  if not !tracing then
    let _, mfunc, ir =
      Driver.Compile.compile_function ~level ~func_rets
        ~globals:sec.W2.Ast.globals ~section:sec.W2.Ast.sname f
    in
    (mfunc, ir)
  else begin
    let ir =
      span "lower" (fun () ->
          Midend.Lower.lower_function ~func_rets ~globals:sec.W2.Ast.globals f)
    in
    count "ir_instrs" (float (Midend.Ir.instr_count ir));
    let stats = span "opt" (fun () -> Midend.Opt.optimize ~level ir) in
    count "opt_work" (float stats.Midend.Opt.work);
    count "opt_rewrites" (float (Midend.Opt.total_changes stats));
    span "irverify" (fun () -> check_ir (Midend.Irverify.check_func ir));
    let c = span "codegen" (fun () -> Warp.Codegen.compile_function ir) in
    count "sched_work" (float c.Warp.Codegen.sched_work);
    count "wides" (float c.Warp.Codegen.wide_count);
    (* The work record's size figures: the function printed twice, for
       its line count and for its token count. *)
    let text =
      span "pretty" (fun () ->
          ignore (W2.Pretty.func_loc f);
          ignore
            (W2.Ast.stmt_count f.W2.Ast.body
            + List.length f.W2.Ast.locals + List.length f.W2.Ast.params);
          W2.Pretty.func_to_string f)
    in
    ignore (span "lex" (fun () -> Driver.Compile.count_tokens text));
    (c.Warp.Codegen.mfunc, ir)
  end

(* [Driver.Compile.compile_source] and [compile_section] rebuilt as
   their layer calls, one span each; this must track
   lib/driver/compile.ml call for call. *)
let compile_traced ~file src =
  ignore (span "lex" (fun () -> Driver.Compile.count_tokens src));
  let m = parse ~file src in
  semcheck m;
  let analysis = span "depan" (fun () -> Analysis.Depan.analyze m) in
  ignore (span "pretty" (fun () -> W2.Pretty.source_lines src));
  List.map2
    (fun (si : Analysis.Depan.section_info) (sec : W2.Ast.section) ->
      let func_rets = Driver.Compile.func_rets_of sec in
      let lints =
        span "lint" (fun () ->
            let lints = ref [] in
            W2.Lint.lint_section (fun d -> lints := d :: !lints) sec;
            W2.Diag.sort (Analysis.Depan.lint_section si @ !lints))
      in
      let info (f : W2.Ast.func) =
        Array.to_list si.Analysis.Depan.si_funcs
        |> List.find_opt (fun fi -> fi.Analysis.Depan.fi_name = f.W2.Ast.fname)
      in
      span "depan" (fun () ->
          let keys =
            Analysis.Depan.cache_keys
              ~salt:(Analysis.Depan.cache_salt ~opt_level:level ~verify_each:false)
              si
          in
          List.iter
            (fun f ->
              ignore
                (Option.bind (info f) (fun fi ->
                     Option.map Analysis.Absint.cost_units fi.Analysis.Depan.fi_cost));
              ignore (Option.map (fun fi -> keys.(fi.Analysis.Depan.fi_index)) (info f)))
            sec.W2.Ast.funcs);
      let funcs =
        List.map
          (fun (f : W2.Ast.func) ->
            ignore (span "lint" (fun () -> W2.Diag.for_func f.W2.Ast.fname lints));
            compile_func ~func_rets ~sec f)
          sec.W2.Ast.funcs
      in
      let ir_sec =
        {
          Midend.Ir.sec_name = sec.W2.Ast.sname;
          cells = sec.W2.Ast.cells;
          funcs = List.map snd funcs;
        }
      in
      span "irverify" (fun () ->
          check_ir (Midend.Irverify.check_calls ir_sec);
          check_ir (Analysis.Depan.check_ir_calls si ir_sec));
      let image, driver =
        span "link" (fun () ->
            let image =
              Warp.Link.link ~section:sec.W2.Ast.sname ~cells:sec.W2.Ast.cells
                (List.map fst funcs)
            in
            ignore (Warp.Asm.encoded_size image);
            (image, Warp.Iodriver.generate image))
      in
      emit sec.W2.Ast.sname image driver)
    analysis.Analysis.Depan.dp_sections m.W2.Ast.sections

let emit_sections (mw : Driver.Compile.module_work) =
  List.map
    (fun (sw : Driver.Compile.section_work) ->
      emit sw.Driver.Compile.sw_name sw.Driver.Compile.sw_image
        sw.Driver.Compile.sw_driver)
    mw.Driver.Compile.mw_sections

let compile ~file src =
  if !tracing then compile_traced ~file src
  else emit_sections (Driver.Compile.compile_source ~file src)

(* The per-module lints `warpcc analyze --project` reports, W007 held
   back for exported functions as the CLI does. *)
let project_lints m (s : Analysis.Modan.module_summary) =
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
  let couplings =
    Array.to_list s.Analysis.Modan.ms_funcs
    |> List.map (fun (w : Analysis.Modan.func_summary) ->
           let e = w.Analysis.Modan.ws_direct in
           {
             W2.Lint.c_func = w.Analysis.Modan.ws_name;
             c_loc = w.Analysis.Modan.ws_loc;
             c_greads = e.Analysis.Depan.greads;
             c_gwrites = e.Analysis.Depan.gwrites;
             c_sends = e.Analysis.Depan.sends;
             c_recvs = e.Analysis.Depan.recvs;
           })
  in
  local
  @ W2.Lint.coupling_warnings ~section:s.Analysis.Modan.ms_section
      ~cells:s.Analysis.Modan.ms_cells ~disjoint:s.Analysis.Modan.ms_disjoint
      couplings

(* Dependency order over the module heads, as [project_order] in
   bin/warpcc.ml: providers first (Kahn), members of import cycles
   appended in input order. *)
let project_order heads =
  let present = Hashtbl.create 16 in
  List.iter (fun (_, m, _) -> Hashtbl.replace present m ()) heads;
  let emitted = Hashtbl.create 16 in
  let rec sweep acc remaining =
    let ready, rest =
      List.partition
        (fun (_, _, imports) ->
          List.for_all
            (fun p -> (not (Hashtbl.mem present p)) || Hashtbl.mem emitted p)
            imports)
        remaining
    in
    if ready = [] then acc @ rest
    else begin
      List.iter (fun (_, m, _) -> Hashtbl.replace emitted m ()) ready;
      if rest = [] then acc @ ready else sweep (acc @ ready) rest
    end
  in
  sweep [] heads

(* The work of `warpcc analyze --project DIR --json` (bin/warpcc.ml's
   [analyze_project]) on sources held in memory: one pass parses every
   file, in name order, for its imports; the second re-parses each in
   dependency order and summarizes it against the summaries before it;
   then the summaries alone are composed and rendered. *)
let analyze project =
  let heads =
    List.sort compare project
    |> List.map (fun (file, src) ->
           let m = parse ~file src in
           ( (file, src),
             m.W2.Ast.mname,
             List.map (fun (im : W2.Ast.import_decl) -> im.W2.Ast.im_module) m.W2.Ast.imports ))
  in
  let summaries, diags =
    List.fold_left
      (fun (summaries, diags) ((file, src), _, _) ->
        let m = parse ~file src in
        semcheck m;
        let s =
          span "modan.summarize" (fun () ->
              Analysis.Modan.summarize ~deps:summaries ~file m)
        in
        let d = span "lint" (fun () -> project_lints m s) in
        (summaries @ [ s ], diags @ d))
      ([], []) (project_order heads)
  in
  let link = span "modan.compose" (fun () -> Analysis.Modan.compose summaries) in
  let json =
    span "emit" (fun () ->
        ignore (W2.Diag.sort (diags @ link.Analysis.Modan.lk_diags));
        Analysis.Modan.to_json link)
  in
  count "xmodule_edges" (float (List.length link.Analysis.Modan.lk_edges));
  count "licensed_fraction" link.Analysis.Modan.lk_licensed;
  (link, json)

let simulate mw =
  let c = span "des" (fun () -> Parallel_cc.Experiment.measure mw) in
  count "sim_speedup" c.Parallel_cc.Timings.speedup;
  c

let par_compile m =
  (span "domains" (fun () ->
       Parallel_cc.Domains.compile_parallel ~workers ~level m))
    .Parallel_cc.Domains.images

(* The phases [Domains.compile_parallel] runs, on this domain alone. *)
let seq_compile (m : W2.Ast.modul) =
  semcheck m;
  List.map
    (fun (sec : W2.Ast.section) ->
      let func_rets = Driver.Compile.func_rets_of sec in
      let mfuncs =
        List.map (fun f -> fst (compile_func ~func_rets ~sec f)) sec.W2.Ast.funcs
      in
      ( sec.W2.Ast.sname,
        span "link" (fun () ->
            Warp.Link.link ~section:sec.W2.Ast.sname ~cells:sec.W2.Ast.cells
              mfuncs) ))
    m.W2.Ast.sections

(* --- set-up and checks --- *)

type state = {
  sources : (string * string) array; (* file name, W2 text *)
  asts : W2.Ast.modul array;
  works : Driver.Compile.module_work array;
  ref_out : section_out list array;
  ref_sim : (float * float) array; (* simulated seq / par elapsed *)
  projects : (string * string) list array;
  ref_json : string array;
}

(* Facts about a composed project that the generator fixes by
   construction: no import cycles, every import resolved, every
   function placed, and every provider on an earlier module level
   than its importers. *)
let check_link project (link : Analysis.Modan.link) =
  let asts =
    List.map (fun (file, src) -> W2.Parser.module_of_string ~file src) project
  in
  if link.Analysis.Modan.lk_sccs <> [] then wrong "import cycle reported";
  if link.Analysis.Modan.lk_missing <> [] then wrong "unresolved import reported";
  let funcs = List.fold_left (fun n m -> n + W2.Ast.func_count m) 0 asts in
  if List.length link.Analysis.Modan.lk_funcs <> funcs then
    wrong "composed %d functions, project has %d"
      (List.length link.Analysis.Modan.lk_funcs)
      funcs;
  let level_of = Hashtbl.create 64 in
  List.iteri
    (fun l ms -> List.iter (fun m -> Hashtbl.replace level_of m l) ms)
    link.Analysis.Modan.lk_module_levels;
  let level m =
    match Hashtbl.find_opt level_of m with
    | Some l -> l
    | None -> wrong "module %s missing from the module levels" m
  in
  List.iter
    (fun (m : W2.Ast.modul) ->
      List.iter
        (fun (im : W2.Ast.import_decl) ->
          if level im.W2.Ast.im_module >= level m.W2.Ast.mname then
            wrong "%s imports %s from the same or a later level" m.W2.Ast.mname
              im.W2.Ast.im_module)
        m.W2.Ast.imports)
    asts

let setup w ~seed =
  let modules = Array.init w.modules (corpus_module w ~seed) in
  let sources =
    Array.map
      (fun (m : W2.Ast.modul) ->
        (m.W2.Ast.mname ^ ".w2", W2.Pretty.module_to_string m))
      modules
  in
  let asts =
    Array.map (fun (file, src) -> W2.Parser.module_of_string ~file src) sources
  in
  let works =
    Array.map (fun (file, src) -> Driver.Compile.compile_source ~file src) sources
  in
  let ref_out = Array.map emit_sections works in
  let ref_sim =
    Array.map
      (fun mw ->
        let c = simulate mw in
        (c.Parallel_cc.Timings.seq.Parallel_cc.Timings.elapsed,
         c.Parallel_cc.Timings.par.Parallel_cc.Timings.elapsed))
      works
  in
  let projects = Array.init projects_per_corpus (project w ~seed) in
  let ref_json =
    Array.map
      (fun p ->
        let link, json = analyze p in
        check_link p link;
        json)
      projects
  in
  { sources; asts; works; ref_out; ref_sim; projects; ref_json }

let arg_values (f : W2.Ast.func) =
  List.mapi
    (fun i (p : W2.Ast.param) ->
      match p.W2.Ast.pty with
      | W2.Ast.Tint -> (W2.Interp.Vint (i + 3), Midend.Ir_interp.Vi (i + 3))
      | W2.Ast.Tfloat ->
        let x = 1.5 +. float i in
        (W2.Interp.Vfloat x, Midend.Ir_interp.Vf x)
      | _ -> wrong "%s: unsupported parameter type" f.W2.Ast.fname)
    f.W2.Ast.params

let same_value a b =
  match (a, b) with
  | W2.Interp.Vint x, Midend.Ir_interp.Vi y -> x = y
  | W2.Interp.Vbool x, Midend.Ir_interp.Vi y -> Bool.to_int x = y
  | W2.Interp.Vfloat x, Midend.Ir_interp.Vf y ->
    Float.abs (x -. y) <= 1e-9 *. Float.max 1. (Float.abs x)
  | _ -> false

(* The independent oracle: W2's reference interpreter against the
   cycle-level cell simulator running the compiled image, on every
   function of the corpus. *)
let check_semantics st =
  Array.iteri
    (fun i (m : W2.Ast.modul) ->
      List.iter2
        (fun (sec : W2.Ast.section) (sw : Driver.Compile.section_work) ->
          List.iter
            (fun (f : W2.Ast.func) ->
              let name = f.W2.Ast.fname in
              let args = arg_values f in
              let channels, interp_out =
                W2.Interp.queue_channels ~input_x:[] ~input_y:[]
              in
              let expect =
                W2.Interp.run_function ~channels sec ~name ~args:(List.map fst args)
              in
              let ports, cell_out = Warp.Cellsim.script_ports ~input_x:[] ~input_y:[] in
              let got, _cycles =
                Warp.Cellsim.run ~ports sw.Driver.Compile.sw_image ~name
                  ~args:(List.map snd args)
              in
              let same_list a b =
                List.length a = List.length b && List.for_all2 same_value a b
              in
              let ix, iy = interp_out () and cx, cy = cell_out () in
              let same_result =
                match (expect, got) with
                | None, None -> true
                | Some a, Some b -> same_value a b
                | _ -> false
              in
              if not (same_result && same_list ix cx && same_list iy cy) then
                wrong "%s: compiled code disagrees with the interpreter" name)
            sec.W2.Ast.funcs)
        m.W2.Ast.sections st.works.(i).Driver.Compile.mw_sections)
    st.asts

(* --- measurement --- *)

let attempted = ref 0
let failed = ref 0

(* Time one operation under its root span; [check] looks at the result
   after the clock stopped.  [None] when the operation failed. *)
let attempt name f check =
  incr attempted;
  match
    let t0 = now () in
    let r = span name f in
    let ms = ms_since t0 in
    check r;
    ms
  with
  | ms -> Some ms
  | exception e ->
    incr failed;
    Printf.eprintf "perfbench: %s failed: %s\n%!" name (Printexc.to_string e);
    None

let record samples = function Some ms -> samples := ms :: !samples | None -> ()
let s_compile = ref []
let s_analyze = ref []
let s_simulate = ref []
let s_speedup = ref []

let run_round st r =
  round := r;
  let i = r mod Array.length st.sources in
  let file, src = st.sources.(i) in
  record s_compile
    (attempt "compile"
       (fun () -> compile ~file src)
       (fun out -> if out <> st.ref_out.(i) then wrong "%s: output changed" file));
  let j = r mod Array.length st.projects in
  record s_analyze
    (attempt "analyze"
       (fun () -> snd (analyze st.projects.(j)))
       (fun json -> if json <> st.ref_json.(j) then wrong "project %d: analysis changed" j));
  record s_simulate
    (attempt "simulate"
       (fun () -> simulate st.works.(i))
       (fun c ->
         let open Parallel_cc.Timings in
         if (c.seq.elapsed, c.par.elapsed) <> st.ref_sim.(i) then
           wrong "%s: replay changed" file));
  let ref_images = List.map (fun o -> (o.sec, o.image)) st.ref_out.(i) in
  let check_images images =
    if List.map (fun (sec, im) -> (sec, Warp.Asm.encode im)) images <> ref_images then
      wrong "%s: images differ from the sequential compiler's" file
  in
  let par () = attempt "par-compile" (fun () -> par_compile st.asts.(i)) check_images in
  let seq () = attempt "seq-compile" (fun () -> seq_compile st.asts.(i)) check_images in
  (* Alternate which side of the pair runs first, and for each module
     from one pass over the corpus to the next. *)
  let p, s =
    if (r + (r / Array.length st.sources)) mod 2 = 0 then
      let p = par () in
      (p, seq ())
    else
      let s = seq () in
      (par (), s)
  in
  match (p, s) with
  | Some p, Some s -> s_speedup := (s /. p) :: !s_speedup
  | _ -> ()

let median = function
  | [] -> 0.
  | l ->
    let a = Array.of_list l in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let metric (name, value, unit) =
  Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name value unit

let layers =
  [
    "lex"; "parse"; "semcheck"; "depan"; "lint"; "lower"; "opt"; "irverify";
    "codegen"; "pretty"; "link"; "emit"; "modan.summarize"; "modan.compose";
    "des"; "domains";
  ]

let layer_counts =
  [
    ("ir_instrs", "count"); ("opt_work", "count");
    ("opt_rewrites", "count"); ("sched_work", "count"); ("wides", "count");
    ("xmodule_edges", "count"); ("licensed_fraction", "ratio");
    ("sim_speedup", "x");
  ]

let metric_name layer suffix =
  String.map (fun c -> if c = '.' then '_' else c) layer ^ suffix

let per_layer rounds =
  let totals = self_totals () in
  let per_round v = v /. float rounds in
  let get l = Option.value ~default:(0., 0.) (Hashtbl.find_opt totals l) in
  List.map (fun l -> (metric_name l "_ms", per_round (fst (get l)), "ms")) layers
  (* other domains' allocation is invisible to Gc.minor_words *)
  @ List.filter_map
      (fun l ->
        if l = "domains" then None
        else Some (metric_name l "_alloc_kw", per_round (snd (get l) /. 1000.), "kword"))
      layers
  @ List.map
      (fun (c, unit) ->
        (c, per_round (Option.value ~default:0. (Hashtbl.find_opt counts c)), unit))
      layer_counts

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. in
  let trace = ref 0 and spans_out = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME  fine | coarse");
      ("--seed", Arg.Set_int seed, "N  input seed");
      ("--seconds", Arg.Set_float seconds, "S  measured seconds");
      ("--trace", Arg.Set_int trace, "0|1  per-layer (traced) run");
      ("--spans", Arg.Set_string spans_out,
       "FILE  write a traced run's spans as Chrome trace-event JSON");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "harness --workload NAME --seed N --seconds S --trace 0|1 [--spans FILE]";
  let w =
    match List.assoc_opt !workload workloads with
    | Some w -> w
    | None ->
      prerr_endline ("harness: unknown workload " ^ !workload);
      exit 2
  in
  let seed = abs !seed in
  (* Set up three times and report the median; measure the last. *)
  let timed_setup () =
    let t0 = now () in
    let st = setup w ~seed in
    (st, ms_since t0 /. 1000.)
  in
  let _, s1 = timed_setup () in
  let _, s2 = timed_setup () in
  let st, s3 = timed_setup () in
  Gc.compact ();
  tracing := !trace = 1;
  let t0 = now () and rounds = ref 0 in
  while ms_since t0 < !seconds *. 1000. do
    run_round st !rounds;
    incr rounds
  done;
  tracing := false;
  let semantics_ok =
    match check_semantics st with
    | () -> true
    | exception e ->
      Printf.eprintf "perfbench: semantic check failed: %s\n%!" (Printexc.to_string e);
      false
  in
  if !trace = 1 && !spans_out <> "" then write_spans !spans_out;
  Printf.eprintf
    "perfbench: %s seed %d: %d rounds; samples compile %d, analyze %d, \
     simulate %d, par-compile pairs %d\n%!"
    !workload seed !rounds (List.length !s_compile) (List.length !s_analyze)
    (List.length !s_simulate) (List.length !s_speedup);
  let metrics =
    if !trace = 1 then per_layer (max 1 !rounds)
    else
      [
        ("compile_ms", median !s_compile, "ms");
        ("analyze_project_ms", median !s_analyze, "ms");
        ("simulate_ms", median !s_simulate, "ms");
        ("par_speedup", median !s_speedup, "x");
        ("setup_s", median [ s1; s2; s3 ], "s");
      ]
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (semantics_ok && !failed = 0 && !s_speedup <> [])
    !attempted !failed
    (String.concat ", " (List.map metric metrics))
