(** Modular cross-module dependence analysis ("modan").

    {!Depan} analyzes one module at a time and stops at the module
    boundary: calls to [import]ed functions stay in effect summaries as
    unresolved names, and nothing orders functions of different
    modules.  This module closes that gap the way a separate compiler
    does — with {e interface summaries} and a {e link-time composer}:

    - {!summarize} analyzes a single-section module against its import
      declarations only and distills the result into a compact
      {!module_summary}: per exported (and internal) function, the
      closed effect summary, the unresolved cross-module calls, the
      content hash, and the abstract-interpretation boundary
      abstractions (array regions, channel protocols, static cost).
      The summary round-trips through a versioned text artifact
      ({!to_artifact}/{!of_artifact}, schema ["warpcc-wsi/1"]), so a
      build system can persist one [.wsi] file per module and re-link
      without re-reading any source.
    - {!compose} loads only summaries and stitches the project-wide
      function-level dependence DAG: module condensation and link
      order, [import_of] edges at call boundaries, [xmodule_global] /
      [xmodule_channel] edges from a cross-module effect closure over
      {e module-qualified} globals, and blanket [summary_limit] pins
      for functions whose closure lost precision.  The composed edge
      set is a superset of what whole-program {!Depan} finds on the
      inlined project ({!inline_project}), so schedules derived from it
      stay conservative.
    - {!compose} also reports the cross-module lints W010 (import
      signature mismatch), W011 (cross-module write to a global
      another module localizes) and W012 (dead export).

    Soundness at the boundary is inherited from {!Absint}: an
    unresolved call havocs the caller's abstract state (all regions,
    top protocols), so per-module refinement can never be {e less}
    conservative than whole-program refinement — composition needs no
    re-refutation pass. *)

(** {1 Interface summaries} *)

type func_summary = {
  ws_name : string;
  ws_loc : W2.Loc.t;
  ws_params : W2.Ast.ty list;
  ws_ret : W2.Ast.ty option;
  ws_exported : bool;
  ws_index : int;  (** position in the section *)
  ws_scc : int;  (** local call-graph SCC id ({!Depan.func_info.fi_scc}) *)
  ws_direct : Depan.effects;  (** the function's own body *)
  ws_effects : Depan.effects;  (** closed over intra-module calls *)
  ws_xcalls : string list;
      (** closed calls with no definition in the module — the imports
          this function (transitively) depends on; sorted *)
  ws_hash : string;  (** {!Depan.func_info.fi_hash} — local content hash *)
  ws_key : string;
      (** cross-module content key: MD5 of [ws_hash] and, recursively,
          the keys of every resolved [ws_xcalls] target — the
          compile-cache ancestry of {!Depan.cache_keys} extended across
          module boundaries, so editing an exported provider function
          invalidates exactly its transitive importers *)
  ws_absint : Absint.summary option;
      (** boundary abstraction (array regions, channel protocols,
          static cost); [None] when absint was off *)
}

type module_summary = {
  ms_module : string;
  ms_file : string;  (** source path, [""] when unknown *)
  ms_section : string;
  ms_cells : int;
  ms_imports : (string * W2.Loc.t * W2.Ast.import_sig list) list;
      (** one entry per [import] declaration: provider module, its
          location, the restated signatures *)
  ms_exports : (string * W2.Loc.t) list;
  ms_globals : string list;  (** section globals, sorted *)
  ms_disjoint : string list;
      (** globals whose write/access pairs the region domain proved
          element-disjoint ({!Depan.section_info.si_disjoint}) — the
          W008 downgrade set, preserved so a link driver lints with
          the same precision as a whole-module run *)
  ms_funcs : func_summary array;  (** in section order *)
  ms_edges : (string * string * Depan.reason list) list;
      (** the module's own dependence edges
          ({!Depan.edges_by_name}) *)
}

val lint : module_summary -> W2.Diag.t list
(** The module's W008/W009 coupling warnings, from its summary alone
    ({!Depan.lint_couplings} over the direct effects). *)

val summarize :
  ?deps:module_summary list ->
  ?sound:bool ->
  ?max_tracked:int ->
  ?absint:bool ->
  ?file:string ->
  W2.Ast.modul ->
  module_summary
(** Separately analyze one semantically checked, single-section module.
    Only [deps] — provider summaries, for resolving [ws_key] ancestry —
    cross the module boundary; sources of other modules are never
    consulted.  The analysis knobs are {!Depan.analyze}'s.
    @raise Invalid_argument unless the module has exactly one
    section. *)

(** {1 The summary artifact} *)

exception Artifact_error of string

val artifact_schema : string
(** ["warpcc-wsi/1"]. *)

val to_artifact : module_summary -> string
(** Versioned, line-oriented text rendering — the [.wsi] file a
    separate build persists per module. *)

val of_artifact : string -> module_summary
(** Inverse of {!to_artifact}.
    @raise Artifact_error on malformed input. *)

(** {1 Link-time composition} *)

exception Link_error of string

type xreason =
  | Local of Depan.reason
      (** an intra-module reason, carried over from the per-module
          analysis *)
  | Import_of
      (** the target directly calls the source across a module
          boundary and must agree with its signature *)
  | Xmodule_global of string
      (** both functions' cross-module closures touch the named
          qualified global (["module.global"]) and at least one writes
          it *)
  | Xmodule_channel of W2.Ast.channel
      (** both closures may operate on the same systolic channel *)
  | Xsummary_limit
      (** blanket pin: one endpoint's closure lost precision (a capped
          local summary, or a call no module of the link resolves) *)

val xreason_to_string : xreason -> string
(** ["import_of"], ["xmodule_global:m.g"], ["xmodule_channel:X"],
    ["summary_limit"], or the {!Depan.reason_to_string} spelling for
    {!Local} reasons. *)

type xedge = {
  x_from : string;  (** function name: compile this first *)
  x_from_module : string;
  x_to : string;
  x_to_module : string;
  x_reasons : xreason list;  (** deduplicated, in display order *)
}

val xedge_confidence : xedge -> Depan.confidence
(** {!Depan.Proven} iff some reason is structural ({!Import_of} or a
    proven {!Local} reason); data over-approximations are
    speculative. *)

type xfunc = {
  xf_name : string;
  xf_module : string;
  xf_rank : int;  (** canonical global rank; edges point low → high *)
  xf_exported : bool;
  xf_limited : bool;  (** the closure carries a {!Xsummary_limit} pin *)
}

type link = {
  lk_modules : module_summary list;  (** as given *)
  lk_order : string list;
      (** module names in condensation topological order: providers
          first, input order breaking ties *)
  lk_sccs : string list list;
      (** import cycles: module SCCs with more than one member *)
  lk_missing : (string * string) list;
      (** (importing module, function name) calls no module of the
          link defines; each makes its callers' closures limited *)
  lk_funcs : xfunc list;  (** in rank order *)
  lk_edges : xedge list;  (** sorted by (source rank, target rank) *)
  lk_levels : string list list;
      (** function antichains of the composed DAG *)
  lk_module_levels : string list list;
      (** antichains of the module condensation: a module's level is
          the length of the longest provider chain below its SCC, so
          every member of an import cycle sits on one level.  Each
          level lists its modules in [lk_order] order. *)
  lk_licensed : float;
      (** fraction of unordered function pairs with no path either way
          — the project-wide analogue of
          {!Depan.licensed_fraction} *)
  lk_diags : W2.Diag.t list;  (** W010/W011/W012, in file order *)
}

val compose : module_summary list -> link
(** Stitch the project DAG from summaries alone.  Functions of
    different modules are ordered module-condensation-first (providers
    before importers), then by each module's own canonical function
    rank, so the result is a DAG even though the data reasons are
    symmetric.  Intra-module pairs keep their per-module edges
    (including absint refutations) untouched; the composer only adds
    edges a single module cannot see.
    @raise Link_error on a duplicate module name or a duplicate
    function name across modules. *)

(** {1 Cross-module lints}

    Produced by {!compose} in [lk_diags]:
    - {b W010} — an import declaration disagrees with the link: the
      provider module is absent, the function is undefined or not
      exported, or the restated signature (arity, parameter types,
      return type) mismatches the definition;
    - {b W011} — a function writes a section global whose name another
      module of the link also localizes: the globals are distinct
      per-module state, so the shared spelling is at best confusing;
    - {b W012} — an exported function no other module of the link
      imports (a dead export). *)

(** {1 Whole-program reference} *)

val inline_project : ?name:string -> W2.Ast.modul list -> W2.Ast.modul
(** Merge a project into one single-section module — the whole-program
    reference the superset theorem compares against, and the input the
    project scheduler compiles.  Section globals are renamed
    ["<module>__<global>"] (respecting function-level shadowing by
    parameters and locals), functions keep their names and input
    order, imports and exports disappear.
    @raise Invalid_argument on a duplicate function name or an empty
    project. *)

(** {1 Output} *)

val report : link -> string
(** Human-readable summary: link order, per-module function and edge
    counts, cross-module edges, levels, licensed fraction, lints. *)

val to_dot : link -> string
(** Graphviz rendering: one cluster per module, cross-module edges
    labeled with their reasons. *)

val to_json : link -> string
(** Machine-readable dump, schema ["warpcc-analyze/3"], kind
    ["project"]. *)
