(* Compilation cost model: deterministic work units (measured by running
   the real compiler) -> simulated seconds on a 1989 SUN workstation
   running the Common-Lisp compiler, plus the memory behaviour that
   drives GC and paging.

   Calibration anchors from the paper:
     - a ~300-line function compiles sequentially in 19-22 minutes,
       5-45-line functions in 2-6 minutes (section 4.3);
     - parsing accounts for under 5% of sequential compilation
       (section 3.4);
     - the sequential compiler thrashes on modules that exceed one
       workstation's memory (section 4.2.3);
     - Lisp process startup downloads a multi-megabyte core image over
       the shared Ethernet (section 4.2.3). *)

type model = {
  (* phase 1 (sequential, module level) *)
  sec_per_token : float;
  sec_per_ast_node : float;
  (* phases 2+3 (parallel, function level) *)
  sec_per_opt_unit : float;
  sec_per_sched_unit : float;
  sec_per_wide : float;
  func_fixed_seconds : float; (* per-function Lisp bookkeeping *)
  (* phase 4 (sequential, section/module level) *)
  sec_per_wide_assembly : float;
  sec_per_image_byte : float;
  (* memory model (megabytes) *)
  workstation_mb : float;
  lisp_core_mb : float;
  ast_mb_per_loc : float; (* parsed module held by a process *)
  data_mb_per_loc : float; (* live data while compiling one function *)
  retained_mb_per_loc : float; (* per compiled function, kept by the
                                   sequential Lisp until the end *)
  parse_garbage_mb_per_loc : float; (* phase-1 garbage in the sequential
                                       Lisp's heap (the parallel masters
                                       parse in separate processes) *)
  parse_garbage_cap_mb : float; (* the collector eventually reclaims it *)
  (* GC and paging slowdown as a function of memory pressure *)
  gc_slope : float; (* above [gc_knee] of physical memory *)
  gc_knee : float;
  page_coeff : float; (* paging above 1.0; diskless stations page through
                         the shared file server, so the cost scales with
                         the square of the number of paging stations *)
  max_slowdown : float;
  (* process startup *)
  lisp_core_bytes : float; (* downloaded at Lisp process start *)
  lisp_init_seconds : float; (* interpreting initialization info *)
  c_process_seconds : float; (* master / section master startup *)
  fm_fork_seconds : float; (* remote process creation, serialized in the
                              forking section master *)
  (* file traffic *)
  source_bytes_per_loc : float;
  diagnostic_bytes : float;
}

let default =
  {
    sec_per_token = 0.0055;
    sec_per_ast_node = 0.010;
    sec_per_opt_unit = 0.016;
    sec_per_sched_unit = 0.0005;
    sec_per_wide = 0.32;
    func_fixed_seconds = 3.0;
    sec_per_wide_assembly = 0.008;
    sec_per_image_byte = 1.5e-5;
    workstation_mb = 16.0;
    lisp_core_mb = 8.0;
    ast_mb_per_loc = 0.0005;
    data_mb_per_loc = 0.024;
    retained_mb_per_loc = 0.0002;
    parse_garbage_mb_per_loc = 0.03;
    parse_garbage_cap_mb = 3.0;
    gc_slope = 1.4;
    gc_knee = 0.50;
    page_coeff = 1.2;
    max_slowdown = 3.5;
    lisp_core_bytes = 8.0e6;
    lisp_init_seconds = 15.0;
    c_process_seconds = 0.6;
    fm_fork_seconds = 2.0;
    source_bytes_per_loc = 40.0;
    diagnostic_bytes = 4096.0;
  }

(* --- time conversions --- *)

(* Phase 1 for the whole module (parse + semantic check). *)
let phase1_seconds m (mw : Compile.module_work) =
  let nodes =
    List.fold_left (fun acc f -> acc + f.Compile.fw_ast_nodes) 0 (Compile.all_funcs mw)
  in
  (m.sec_per_token *. float_of_int mw.Compile.mw_tokens)
  +. (m.sec_per_ast_node *. float_of_int nodes)

(* The quick structure-discovering parse the master performs to set up
   the parallel compilation (no semantic checking). *)
let setup_parse_seconds m (mw : Compile.module_work) =
  0.5 *. m.sec_per_token *. float_of_int mw.Compile.mw_tokens

(* Phases 2+3 for one function: the work a function master performs. *)
let phase23_seconds m (fw : Compile.func_work) =
  m.func_fixed_seconds
  +. (m.sec_per_opt_unit *. float_of_int fw.Compile.fw_opt_work)
  +. (m.sec_per_sched_unit *. float_of_int fw.Compile.fw_sched_work)
  +. (m.sec_per_wide *. float_of_int fw.Compile.fw_wides)

(* Estimated phases-2+3 compute of one multi-function task: the cost
   signal the scheduler ranks and batches by, and the term of the
   supervision deadline that scales with the task.  Summed in function
   order so the estimate is bit-stable across plan permutations. *)
let task_phase23_seconds m (funcs : Compile.func_work list) =
  List.fold_left (fun acc fw -> acc +. phase23_seconds m fw) 0.0 funcs

(* Static stand-in for [phase23_seconds]: the abstract interpretation's
   statement-execution bound priced as optimizer work units.  It only
   has to {e rank} functions like the measured signal does (the
   scheduler compares costs, it never adds them to the clock), so one
   abstract statement execution ~ one phase-2 work unit is close
   enough.  Falls back to the measured estimate only when the bound is
   missing, i.e. absint is off.  A cost widened to top is not missing:
   [Absint.cost_units] prices an unbounded cost at 4 × its lower bound,
   so top itself is 4 units. *)
let static_phase23_seconds m (fw : Compile.func_work) =
  match fw.Compile.fw_static_units with
  | Some units ->
    m.func_fixed_seconds +. (m.sec_per_opt_unit *. float_of_int units)
  | None -> phase23_seconds m fw

let static_task_seconds m (funcs : Compile.func_work list) =
  List.fold_left (fun acc fw -> acc +. static_phase23_seconds m fw) 0.0 funcs

(* Phase 4 for the whole module (assembly, linking, I/O drivers). *)
let phase4_seconds m (mw : Compile.module_work) =
  let wides =
    List.fold_left (fun acc f -> acc + f.Compile.fw_wides) 0 (Compile.all_funcs mw)
  in
  (m.sec_per_wide_assembly *. float_of_int wides)
  +. (m.sec_per_image_byte *. float_of_int (Compile.total_image_bytes mw))

(* Time the section master spends combining results and diagnostics:
   a per-function share, a per-wide share, and a per-diagnostic share
   for merging the findings back into file order. *)
let combine_seconds (sw : Compile.section_work) =
  let wides =
    List.fold_left (fun acc f -> acc + f.Compile.fw_wides) 0 sw.Compile.sw_funcs
  in
  (0.008 *. float_of_int wides)
  +. (0.5 *. float_of_int (List.length sw.Compile.sw_funcs))
  +. (0.02 *. float_of_int (List.length sw.Compile.sw_diags))

(* Bytes of rendered diagnostics a task's function masters write back
   with their results (the fixed [diagnostic_bytes] framing is charged
   separately, per task). *)
let task_diag_bytes (funcs : Compile.func_work list) =
  float_of_int
    (List.fold_left
       (fun acc fw -> acc + W2.Diag.encoded_bytes fw.Compile.fw_diags)
       0 funcs)

(* --- memory --- *)

(* Resident set of a function master compiling [fw]. *)
let function_master_mb m (fw : Compile.func_work) =
  m.lisp_core_mb
  +. (m.ast_mb_per_loc *. float_of_int fw.Compile.fw_loc)
  +. (m.data_mb_per_loc *. float_of_int fw.Compile.fw_loc)

(* Resident set of the sequential compiler while compiling the [k]-th
   function: the Lisp process holds the whole module's AST, everything
   it retained from functions already compiled, and the live data of the
   function at hand. *)
let sequential_mb m (mw : Compile.module_work) ~compiled_loc ~current_loc =
  m.lisp_core_mb
  +. (m.ast_mb_per_loc *. float_of_int mw.Compile.mw_loc)
  +. min m.parse_garbage_cap_mb
       (m.parse_garbage_mb_per_loc *. float_of_int mw.Compile.mw_loc)
  +. (m.retained_mb_per_loc *. float_of_int compiled_loc)
  +. (m.data_mb_per_loc *. float_of_int current_loc)

(* Slowdown factor for a process given the workstation's residency.
   Garbage collection ramps up as the heap fills.  Paging on a diskless
   workstation goes through the shared file server, so its cost grows
   with the square of the number of stations paging at the same time —
   the mechanism behind the parallel compiler's system overhead on
   memory-hungry functions. *)
let slowdown m ~pressure ~pagers =
  let gc = m.gc_slope *. max 0.0 (pressure -. m.gc_knee) in
  let k = float_of_int (max 1 pagers) in
  let paging = m.page_coeff *. max 0.0 (pressure -. 1.0) *. k *. k in
  min m.max_slowdown (1.0 +. gc +. paging)

let source_bytes m (loc : int) = m.source_bytes_per_loc *. float_of_int loc

(* --- fine-grained split of the per-function work (section 5's "finer
   grain parallelism" extension): phase 2 and phase 3 as separate
   tasks, connected by shipping the optimized IR over the network. --- *)

let phase2_seconds m (fw : Compile.func_work) =
  (0.5 *. m.func_fixed_seconds)
  +. (m.sec_per_opt_unit *. float_of_int fw.Compile.fw_opt_work)

let phase3_seconds m (fw : Compile.func_work) =
  (0.5 *. m.func_fixed_seconds)
  +. (m.sec_per_sched_unit *. float_of_int fw.Compile.fw_sched_work)
  +. (m.sec_per_wide *. float_of_int fw.Compile.fw_wides)

(* Size of a serialized optimized-IR file (phase-2 output handed to a
   phase-3 master). *)
let ir_bytes (fw : Compile.func_work) = 56.0 *. float_of_int fw.Compile.fw_ir_instrs
