(* The four-phase compiler pipeline (section 3.2 of the paper), with
   work-unit accounting.

   Running the real compiler yields deterministic work counts per phase
   and per function; [Cost] converts them into simulated 1989 seconds.
   Phase 1 (parse + semantic check) and phase 4 (assembly, linking, I/O
   drivers) are module/section-level; phases 2 (flowgraph + optimizer)
   and 3 (software pipelining + code generation) are the per-function
   work that the parallel compiler distributes.  [compile_source] runs
   only parse and semantic check before its pool of function masters;
   the dependence analysis, which only phase 4 reads, is one more pool
   task behind the functions. *)

exception Compile_error of string

type func_work = {
  fw_name : string;
  fw_section : string;
  fw_loc : int; (* source lines: the paper's size metric *)
  fw_tokens : int; (* tokens of this function's own source text *)
  fw_ast_nodes : int;
  fw_ir_instrs : int; (* after lowering, before optimization *)
  fw_opt_work : int; (* phase 2 work units *)
  fw_sched_work : int; (* phase 3 work units *)
  fw_wides : int; (* code size in wide instructions *)
  fw_pipelined : int;
  fw_spilled : int;
  fw_static_units : int option; (* statically bounded statement
                                   executions (absint cost domain);
                                   None when the refinement is off *)
  fw_key : string option; (* content-addressed compile-cache key
                             (salted, closed over dependence
                             predecessors); None when the analysis
                             was not run *)
  fw_diags : W2.Diag.t list; (* findings this function's master reports
                                back to its section master *)
}

type section_work = {
  sw_name : string;
  sw_funcs : func_work list;
  sw_image : Warp.Mcode.image;
  sw_image_bytes : int;
  sw_driver : Warp.Iodriver.t;
  sw_diags : W2.Diag.t list; (* combined per-function diagnostics, in
                                file order *)
}

type module_work = {
  mw_name : string;
  mw_loc : int;
  mw_tokens : int; (* lexed tokens of the whole module: phase 1 *)
  mw_sections : section_work list;
  mw_analysis : Analysis.Depan.t;
      (* whole-module dependence analysis; downstream, Plan derives the
         task DAG from it and charges no simulated time for the
         analysis itself *)
}

let all_diags (mw : module_work) : W2.Diag.t list =
  W2.Diag.sort (List.concat_map (fun s -> s.sw_diags) mw.mw_sections)

let count_tokens source = W2.Lexer.count source

let ast_nodes (f : W2.Ast.func) =
  W2.Ast.stmt_count f.W2.Ast.body + List.length f.W2.Ast.locals
  + List.length f.W2.Ast.params

let verify_failure violations =
  Compile_error
    ("internal error: IR verification failed\n"
    ^ String.concat "\n"
        (List.map Midend.Irverify.violation_to_string violations))

(* Phases 2 and 3 proper, as a function master runs them: lower,
   optimize, verify, generate code. *)
type phases23 = {
  ir_instrs : int; (* after lowering *)
  opt_work : int;
  code : Warp.Codegen.compiled;
  ir : Midend.Ir.func; (* optimized *)
}

let phases23 ~level ~verify_each ~globals ~func_rets (f : W2.Ast.func) =
  let ir = Midend.Lower.lower_function ~func_rets ~globals f in
  let ir_instrs = Midend.Ir.instr_count ir in
  let stats = Midend.Opt.optimize ~level ~verify_each ir in
  (* End of phase 2: the IR verifier always runs here; a violation means
     an optimization pass miscompiled, which aborts like a phase-1
     error. *)
  (match Midend.Irverify.check_func ir with
  | [] -> ()
  | violations -> raise (verify_failure violations));
  let code = Warp.Codegen.compile_function ir in
  { ir_instrs; opt_work = stats.Midend.Opt.work; code; ir }

(* A function's work record: its size in source lines and tokens (of
   [source], its rendering), what phase 1 found about it, and what
   phases 2-3 measured.  The size is counted as soon as the function is
   given, before the phase-2/3 results are. *)
let work_record ~section ?static_units ?key ~diags ~source (f : W2.Ast.func) =
  let loc = W2.Pretty.source_lines source and tokens = count_tokens source in
  fun r ->
    {
      fw_name = f.W2.Ast.fname;
      fw_section = section;
      fw_loc = loc;
      fw_tokens = tokens;
      fw_ast_nodes = ast_nodes f;
      fw_ir_instrs = r.ir_instrs;
      fw_opt_work = r.opt_work;
      fw_sched_work = r.code.Warp.Codegen.sched_work;
      fw_wides = r.code.Warp.Codegen.wide_count;
      fw_pipelined = r.code.Warp.Codegen.pipelined;
      fw_spilled = r.code.Warp.Codegen.spilled;
      fw_static_units = static_units;
      fw_key = key;
      fw_diags = diags;
    }

(* Phases 2 and 3 for one function.  [diags] are the phase-1 lint
   findings attributed to this function; the function master carries
   them (plus anything the IR verifier reports) back up the hierarchy. *)
let compile_function ?(level = 2) ?(verify_each = false) ?(diags = [])
    ?(globals = []) ?static_units ?key ~func_rets ~section (f : W2.Ast.func) :
    func_work * Warp.Mcode.mfunc * Midend.Ir.func =
  let r = phases23 ~level ~verify_each ~globals ~func_rets f in
  ( work_record ~section ?static_units ?key ~diags
      ~source:(W2.Pretty.func_to_string f) f r,
    r.code.Warp.Codegen.mfunc,
    r.ir )

let func_rets_of (sec : W2.Ast.section) =
  let table = Hashtbl.create 8 in
  List.iter
    (fun (f : W2.Ast.func) ->
      Hashtbl.replace table f.W2.Ast.fname
        (Option.map
           (function
             | W2.Ast.Tint -> Midend.Ir.Int
             | W2.Ast.Tfloat -> Midend.Ir.Float
             | W2.Ast.Tbool -> Midend.Ir.Bool
             | W2.Ast.Tarray _ -> raise (Compile_error "array return type"))
           f.W2.Ast.ret))
    sec.W2.Ast.funcs;
  table

(* Function masters on real cores.  Phase 1 fixes the whole task set
   before any master starts, so the masters need no queue: every task
   sits in one source-order array, and each master takes the next one
   with [fetch_and_add] on one shared index until none is left: FCFS,
   as in the paper.  The calling domain is one of the masters, and
   [Domain.join] is the only wait.  A task that raises does not take its
   master down: its slot records the exception, and once every task has
   ended the first failure in source order is re-raised, the exception
   a one-domain compile raises.  Every slot starts as the constant
   [Empty], so even a large task set forces no minor collection. *)
type 'a slot = Empty | Todo of (unit -> 'a) | Done of 'a | Failed of exn

let function_masters ?(masters = max_int) (groups : (unit -> 'a) list list) :
    'a list list =
  let n = List.fold_left (fun acc g -> acc + List.length g) 0 groups in
  let slots = Array.make n Empty in
  List.iteri (fun i task -> slots.(i) <- Todo task) (List.concat groups);
  let next = Atomic.make 0 in
  let rec master () =
    let i = Atomic.fetch_and_add next 1 in
    if i < n then begin
      (match slots.(i) with
      | Todo task -> slots.(i) <- (try Done (task ()) with e -> Failed e)
      | Empty | Done _ | Failed _ -> assert false);
      master ()
    end
  in
  let masters = min (min masters n) (Domain.recommended_domain_count ()) in
  let spawned = List.init (max 0 (masters - 1)) (fun _ -> Domain.spawn master) in
  master ();
  List.iter Domain.join spawned;
  let taken = ref 0 in
  List.map
    (List.map (fun _ ->
         let i = !taken in
         incr taken;
         match slots.(i) with
         | Done v -> v
         | Failed e -> raise e
         | Empty | Todo _ -> assert false))
    groups

(* The section master's share of the analysis task, and what it does
   once the section's function masters are done.  The share is the
   section's lints, with the analyzer-fed coupling warnings W008/W009,
   and each function's work record but for its phase-2/3 part: the
   function's size (from the rendering the analysis hashes), its lints,
   the analyzer's static cost bound and its compile-cache key.  Keys
   are derived from the section summary (hash + dependence closure)
   under the configuration salt, so a function master downstream can
   address its phase-2/3 artifact by content.  [si_funcs] is built in
   [sec.funcs] order, so facts go by position.  The returned function
   is phase 4: the IR verifier's cross-function call check over the
   optimized section, the analyzer's AST-vs-IR call cross-check, then
   linking, the I/O driver and the encoded size. *)
let plan_section ~level ~verify_each (si : Analysis.Depan.section_info)
    (sec : W2.Ast.section) =
  let lints = ref [] in
  W2.Lint.lint_section (fun d -> lints := d :: !lints) sec;
  let lints = W2.Diag.sort (Analysis.Depan.lint_section si @ !lints) in
  let keys =
    Analysis.Depan.cache_keys
      ~salt:(Analysis.Depan.cache_salt ~opt_level:level ~verify_each)
      si
  in
  let records =
    List.mapi
      (fun i (f : W2.Ast.func) ->
        let fi = si.Analysis.Depan.si_funcs.(i) in
        work_record ~section:sec.W2.Ast.sname
          ?static_units:(Option.map Analysis.Absint.cost_units fi.fi_cost)
          ~key:keys.(i)
          ~diags:(W2.Diag.for_func f.W2.Ast.fname lints)
          ~source:fi.fi_source f)
      sec.W2.Ast.funcs
  in
  fun results ->
    let ir_section =
      {
        Midend.Ir.sec_name = sec.W2.Ast.sname;
        cells = sec.W2.Ast.cells;
        funcs = List.map (fun r -> r.ir) results;
      }
    in
    (match Midend.Irverify.check_calls ir_section with
    | [] -> ()
    | violations -> raise (verify_failure violations));
    (match Analysis.Depan.check_ir_calls si ir_section with
    | [] -> ()
    | violations -> raise (verify_failure violations));
    let image =
      Warp.Link.link ~section:sec.W2.Ast.sname ~cells:sec.W2.Ast.cells
        (List.map (fun r -> r.code.Warp.Codegen.mfunc) results)
    in
    {
      sw_name = sec.W2.Ast.sname;
      sw_funcs = List.map2 (fun record r -> record r) records results;
      sw_image = image;
      sw_image_bytes = Warp.Asm.encoded_size image;
      sw_driver = Warp.Iodriver.generate image;
      sw_diags = lints;
    }

(* What the analysis task hands back: the module's dependence analysis,
   each section's phase 4 and the module's size. *)
type analyzed = {
  depan : Analysis.Depan.t;
  finish : (phases23 list -> section_work) list;
  loc : int; (* source lines *)
  tokens : int;
}

type task_result = Compiled of phases23 | Analyzed of analyzed

(* The whole compiler, from source text.  Raises [Compile_error] on
   phase-1 failure (the master aborts, as in the paper). *)
let compile_source ?(level = 2) ?(verify_each = false) ?(file = "<module>")
    ?max_tracked ?(absint = true) (source : string) : module_work =
  let m =
    try W2.Parser.module_of_string ~file source with
    | W2.Parser.Error (msg, loc) ->
      raise (Compile_error (Printf.sprintf "%s: %s" (W2.Loc.to_string loc) msg))
    | W2.Lexer.Error (msg, loc) ->
      raise (Compile_error (Printf.sprintf "%s: %s" (W2.Loc.to_string loc) msg))
  in
  (match W2.Semcheck.check_module m with
  | [] -> ()
  | errors ->
    raise
      (Compile_error
         (String.concat "\n" (List.map W2.Semcheck.error_to_string errors))));
  (* Phases 2-3 of every function of every section on one pool.  The
     interprocedural dependence analysis, which only phase 4 reads, is
     one more task behind them, so it never delays a function. *)
  let functions =
    List.map
      (fun (sec : W2.Ast.section) ->
        let func_rets = func_rets_of sec in
        List.map
          (fun f () ->
            Compiled
              (phases23 ~level ~verify_each ~globals:sec.W2.Ast.globals
                 ~func_rets f))
          sec.W2.Ast.funcs)
      m.W2.Ast.sections
  in
  let analysis () =
    let depan = Analysis.Depan.analyze ?max_tracked ~absint m in
    Analyzed
      {
        depan;
        finish =
          List.map2
            (plan_section ~level ~verify_each)
            depan.Analysis.Depan.dp_sections m.W2.Ast.sections;
        loc = W2.Pretty.source_lines source;
        tokens = count_tokens source;
      }
  in
  let compiled = function Compiled r -> r | Analyzed _ -> assert false in
  match List.rev (function_masters (functions @ [ [ analysis ] ])) with
  | [ Analyzed a ] :: sections ->
    (* Phase 4, section by section. *)
    {
      mw_name = m.W2.Ast.mname;
      mw_loc = a.loc;
      mw_tokens = a.tokens;
      mw_sections =
        List.map2
          (fun finish own -> finish (List.map compiled own))
          a.finish (List.rev sections);
      mw_analysis = a.depan;
    }
  | _ -> assert false

(* Convenience: compile an AST (pretty-printing it first so that the
   token count reflects a real source file). *)
let compile_module ?(level = 2) ?(verify_each = false) ?max_tracked
    ?(absint = true) (m : W2.Ast.modul) : module_work =
  compile_source ~level ~verify_each ?max_tracked ~absint
    (W2.Pretty.module_to_string m)

let all_funcs (mw : module_work) : func_work list =
  List.concat_map (fun s -> s.sw_funcs) mw.mw_sections

let total_image_bytes (mw : module_work) : int =
  List.fold_left (fun acc s -> acc + s.sw_image_bytes) 0 mw.mw_sections
