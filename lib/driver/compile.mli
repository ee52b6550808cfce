(** The four-phase compiler pipeline (paper, section 3.2) with
    work-unit accounting.

    Running the real compiler yields deterministic work counts per
    phase and per function; {!Cost} converts them into simulated 1989
    seconds.  Phase 1 (parse + semantic check) and phase 4 (assembly,
    linking, I/O drivers) are module/section-level; phases 2 (flowgraph
    + optimizer) and 3 (software pipelining + code generation) are the
    per-function work the parallel compiler distributes, and
    {!compile_source} distributes it for real: its function masters
    run on up to [Domain.recommended_domain_count ()] OCaml domains,
    with output byte-identical to a one-domain compile. *)

exception Compile_error of string
(** Phase-1 failure: the master aborts the compilation. *)

type func_work = {
  fw_name : string;
  fw_section : string;
  fw_loc : int; (** source lines — the paper's size metric *)
  fw_tokens : int; (** tokens of this function's own source text *)
  fw_ast_nodes : int;
  fw_ir_instrs : int; (** after lowering, before optimization *)
  fw_opt_work : int; (** phase-2 work units *)
  fw_sched_work : int; (** phase-3 work units *)
  fw_wides : int; (** code size in wide instructions *)
  fw_pipelined : int; (** loops software-pipelined *)
  fw_spilled : int;
  fw_static_units : int option;
      (** statically bounded statement executions of one call, from the
          abstract interpretation's cost domain ({!Analysis.Absint});
          what [--static-cost] scheduling ranks by.  [None] when the
          refinement is off *)
  fw_key : string option;
      (** content-addressed compile-cache key of this function's
          phase-2/3 artifact ({!Analysis.Depan.cache_keys}): salted
          with the optimization configuration and closed over the
          function's dependence ancestry.  [None] when the section was
          compiled without the phase-1 analysis; such functions never
          hit the cache *)
  fw_diags : W2.Diag.t list;
      (** findings this function's master reports back to its section
          master (lint warnings from phase 1, verifier findings) *)
}

type section_work = {
  sw_name : string;
  sw_funcs : func_work list;
  sw_image : Warp.Mcode.image;
  sw_image_bytes : int;
  sw_driver : Warp.Iodriver.t;
  sw_diags : W2.Diag.t list;
      (** combined per-function diagnostics, in file order — the
          section master's "combine results and diagnostics" step *)
}

type module_work = {
  mw_name : string;
  mw_loc : int;
  mw_tokens : int; (** lexed tokens of the whole module: phase 1 *)
  mw_sections : section_work list;
  mw_analysis : Analysis.Depan.t;
      (** whole-module dependence analysis (phase 1, sequential
          master): {!Plan} derives the task DAG from it; the analysis
          itself charges no simulated time *)
}

val count_tokens : string -> int

val func_rets_of :
  W2.Ast.section -> (string, Midend.Ir.ty option) Hashtbl.t
(** Return types of a section's functions — the context
    {!Midend.Lower.lower_function} needs. *)

val compile_function :
  ?level:int ->
  ?verify_each:bool ->
  ?diags:W2.Diag.t list ->
  ?globals:W2.Ast.decl list ->
  ?static_units:int ->
  ?key:string ->
  func_rets:(string, Midend.Ir.ty option) Hashtbl.t ->
  section:string ->
  W2.Ast.func ->
  func_work * Warp.Mcode.mfunc * Midend.Ir.func
(** Phases 2 and 3 for one (checked) function.  The IR verifier runs
    unconditionally on the optimized IR (end of phase 2); with
    [~verify_each:true] it also runs after every optimization pass.
    [diags] are phase-1 findings to attach to the function's work
    record; [globals] are the enclosing section's global declarations
    (needed to lower references to them).  The returned IR is the
    post-optimization flowgraph.
    @raise Compile_error when verification fails (a miscompiling
    pass). *)

val function_masters : ?masters:int -> (unit -> 'a) list list -> 'a list list
(** [function_masters groups] runs every task of [groups] (one group per
    section) on the function-master pool and returns the results in the
    same shape.  The tasks sit in one source-order array; each master
    takes the next one through one shared atomic index (FCFS).  The
    calling domain is one of the masters, and the pool runs
    [min masters tasks (Domain.recommended_domain_count ())] of them
    ([masters] defaults to no limit; below 1 it counts as 1).
    A raising task does not stop the others: once every task has ended,
    the first failure in source order is re-raised, the exception a
    one-domain compile raises. *)

val compile_source :
  ?level:int ->
  ?verify_each:bool ->
  ?file:string ->
  ?max_tracked:int ->
  ?absint:bool ->
  string ->
  module_work
(** The whole compiler, from source text.  Phase 1 (parse, semantic
    check, dependence analysis, each section's lints and cache keys)
    runs on the calling domain.  Phases 2-3 of every function of every
    section then run on {!function_masters}, up to
    [Domain.recommended_domain_count ()] domains; the output is
    byte-identical to a one-domain compile, since each function master
    works on its own function only.  Phase 4 follows section by
    section: the verifier's cross-function call check, the analyzer's
    AST-vs-IR call cross-check, link, I/O driver and encoded size.  A
    failing function master's exception is raised after every master
    has ended, the first in source order, before any phase-4 step.
    [absint] (default [true])
    runs the abstract-interpretation refinement inside the phase-1
    dependence analysis; with [~absint:false] the analysis — and every
    timing derived from it — is bit-identical to the pre-absint
    compiler.  [max_tracked] caps the analyzer's per-summary global
    tracking ({!Analysis.Depan.analyze}); lowering it manufactures
    [summary_limit]-pinned sections, the speculation experiments'
    worst-case input.
    @raise Compile_error on phase-1 failure. *)

val compile_module :
  ?level:int ->
  ?verify_each:bool ->
  ?max_tracked:int ->
  ?absint:bool ->
  W2.Ast.modul ->
  module_work
(** Convenience: pretty-print the AST so the token count reflects a
    real source file, then {!compile_source}. *)

val all_funcs : module_work -> func_work list
val total_image_bytes : module_work -> int

val all_diags : module_work -> W2.Diag.t list
(** Every diagnostic of the module, merged in file order — what the
    master prints after combining the section masters' results. *)
