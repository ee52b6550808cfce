(** Interprocedural dependence analysis ("depan") over a checked W2
    module.

    The paper's parallel compiler dispatches functions as independent
    tasks; this analyzer computes how independent they actually are.
    Per section (calls are intra-section by construction) it builds:

    - the call graph, including which call sites the inliner would
      expand — an inlined callee is a {e compile-time} input of its
      caller, not merely a link-time one;
    - per-function effect summaries (section globals read/written,
      channel sends/receives), closed over calls by a bottom-up
      fixpoint on the call graph's strongly connected components;
    - a function-level dependence DAG whose edges carry reasons.  Every
      edge [f -> g] means "compile [f] before [g]".

    Edges are oriented by a canonical rank — SCC condensation order
    (callees first), ties broken by section order — so the result is a
    DAG by construction even though some dependence reasons (global
    conflicts, channel pairing) are symmetric.

    The analyzer reads only the AST: it charges no simulated time and,
    in the simulated compilation, runs in phase 1, in the sequential
    master, before tasks are dispatched.  The real compiler
    ([Driver.Compile.compile_source]) runs it on its pool of function
    masters, as one task behind the functions, since only phase 4 reads
    it. *)

type effects = {
  greads : string list; (** section globals read, sorted *)
  gwrites : string list; (** section globals written, sorted *)
  sends : W2.Ast.channel list;
  recvs : W2.Ast.channel list;
  calls : string list; (** user functions called, sorted *)
  limited : bool;
      (** the tracked-global cap was hit; the sets above may be
          incomplete (see the [sound] analysis mode) *)
}

type reason =
  | Inline_of
      (** the target inlines the source, so the source's body is a
          compile-time input of the target *)
  | Sig_agreement
      (** the target calls the source (not inlinably) and must agree
          with its signature; also used to serialize the members of a
          call-graph cycle, which need each other's signatures *)
  | Global_conflict of string
      (** both functions touch the named section global and at least
          one writes it *)
  | Channel_pair of W2.Ast.channel
      (** both functions touch the same systolic channel, so their
          send/receive orders are coupled through the cell array *)
  | Summary_limit
      (** conservative edge added in [sound] mode because one
          endpoint's summary hit the tracked-global cap *)

val reason_to_string : reason -> string

val reason_of_string : string -> reason option
(** The inverse of {!reason_to_string}. *)

type edge = {
  e_from : int; (** index into [si_funcs]: compile this first *)
  e_to : int;
  reasons : reason list; (** deduplicated, in a fixed display order *)
  e_hot : bool;
      (** the endpoints' {e uncapped} closed summaries really share
          written state or a channel — the commit oracle's ground
          truth: speculating past a hot {!Speculative} edge aborts
          when the attempt overlapped its predecessor, past a cold one
          it always commits *)
}

type confidence =
  | Proven
      (** the edge carries a structural reason ([Inline_of] /
          [Sig_agreement]): the source's body or signature is a genuine
          compile-time input of the target, so the order is mandatory *)
  | Speculative
      (** every reason is a data over-approximation ([Global_conflict],
          [Channel_pair], or a blanket [Summary_limit]): the pair may
          be dynamically independent, so a [dag+spec] schedule may
          dispatch past the edge under the commit protocol *)

val reason_proven : reason -> bool
(** The reason is structural ([Inline_of] / [Sig_agreement]); the one
    test behind {!edge_confidence} and [Modan.xedge_confidence]. *)

val edge_confidence : edge -> confidence
(** [Proven] when some reason is {!reason_proven}. *)

val confidence_to_string : confidence -> string
(** ["proven"] / ["speculative"]. *)

type refuter =
  | Refuted_region
      (** the array-region domain proved every write/any-access overlap
          element-disjoint (also covers a fully discharged
          [summary_limit]) *)
  | Refuted_protocol
      (** the channel-protocol domain proved one endpoint performs zero
          operations on the paired channel *)

val refuter_to_string : refuter -> string
(** ["region"] / ["protocol"]. *)

type pruned = {
  p_from : int;
  p_to : int;
  p_reason : reason; (** the refuted reason *)
  p_refuted_by : refuter;
}
(** Provenance of one refuted edge reason.  An edge disappears from
    [si_edges] exactly when {e all} of its reasons are refuted;
    partially refuted edges stay, minus the refuted reasons. *)

type func_info = {
  fi_name : string;
  fi_index : int; (** position in the section, = index in [si_funcs] *)
  fi_loc : W2.Loc.t;
  fi_arity : int;
  fi_returns : bool;
  fi_inlinable : bool; (** by {!W2.Inline.inlinable} at the default cap *)
  fi_scc : int; (** SCC id; lower ids are compiled first (callees) *)
  fi_direct : effects; (** effects of this function's own body *)
  fi_summary : effects; (** closed over everything it calls *)
  fi_hash : string;
      (** stable effect-summary hash (MD5 hex over the function's
          rendered source, its closed summary, the declarations of the
          globals it localizes ({!W2.Ast.localized_globals}: name and
          type, in section order) and its callees' hashes in rank
          order) — the groundwork for content-addressed compilation
          caching *)
  fi_source : string;
      (** the function's rendered source ({!W2.Pretty.func_to_string}),
          as [fi_hash] covers it; the compiler takes the function's
          size in lines and tokens from it *)
  fi_purity : Absint.purity option;
      (** abstract-interpretation verdict; [None] when absint is off *)
  fi_cost : Absint.itv option;
      (** statically bounded statement executions per call; [None] when
          absint is off *)
  fi_absint : Absint.summary option;
      (** the summary [fi_purity] and [fi_cost] come from; [None] when
          absint is off *)
}

type section_info = {
  si_name : string;
  si_cells : int;
  si_funcs : func_info array;
  si_edges : edge list; (** sorted by ([e_from], [e_to]) *)
  si_levels : int list list;
      (** antichain levels of the DAG: level 0 has no predecessors,
          level [k] depends on something at level [k-1]; functions in
          the same level are mutually unordered *)
  si_fixpoint_sweeps : int;
      (** total summary sweeps until the SCC fixpoints stabilized *)
  si_pruned : pruned list;
      (** edge reasons the abstract interpretation refuted, in edge
          order; empty when absint is off *)
  si_disjoint : string list;
      (** globals whose every write/access pair is element-disjoint —
          the W008 downgrade set *)
}

type t = {
  dp_module : string;
  dp_sound : bool;
  dp_absint : bool;
  dp_sections : section_info list;
}

val analyze :
  ?sound:bool ->
  ?max_tracked:int ->
  ?absint:bool ->
  W2.Ast.modul ->
  t
(** Analyze a semantically checked module.  [sound] (default [true])
    adds {!Summary_limit} edges from any function whose summary hit
    [max_tracked] (default 64) distinct globals, so schedules derived
    from the DAG stay conservative at analysis limits; with
    [~sound:false] such functions simply carry truncated summaries.

    [absint] (default [true]) runs the {!Absint} refinement pass after
    the base analysis: refuted edge reasons move to [si_pruned] (with
    their refuter), surviving [summary_limit] reasons are replaced by
    the targeted conflicts the abstract interpretation can actually
    name, levels and licensed fraction are recomputed over the pruned
    DAG, and [fi_purity]/[fi_cost]/[si_disjoint] are filled in, at
    {!Absint.default_max_intervals} slices per region.  With
    [~absint:false] the result
    — edges, levels, lints, timings downstream — is bit-identical to
    the pre-absint analyzer. *)

val section : t -> string -> section_info option

val successors : section_info -> int list array
(** [si_edges] as a successor array indexed like [si_funcs]. *)

val dependent : section_info -> int -> int -> bool
(** Is there a directed path between the two functions (either way)? *)

val independent : section_info -> int -> int -> bool
(** No path either way: the pair may compile in either order with
    bit-identical results, and the pair's interpretations commute. *)

val licensed_fraction : section_info -> float
(** {!Digraph.licensed_fraction} of [si_edges]: the fraction of
    unordered function pairs the DAG licenses to run in parallel — the
    analysis-side bound on the speedup a DAG-aware schedule can keep. *)

val edges_by_name : section_info -> (string * string * reason list) list
(** [si_edges] with indices resolved to function names. *)

val cache_salt : opt_level:int -> verify_each:bool -> string
(** The configuration salt of the content-addressed compile cache: a
    versioned rendering of every compiler knob that shapes a phase-2/3
    artifact (the optimization level and the per-pass verification
    toggle).  Two compilations may share cache entries only when their
    salts are equal; bump the embedded format version whenever the
    artifact encoding itself changes. *)

val cache_keys : salt:string -> section_info -> string array
(** Content-addressed compile-cache key per function, indexed like
    [si_funcs]: the MD5 of the salt, the function's own {!func_info.fi_hash}
    and — recursively — the keys of its [si_edges] predecessors in
    ascending index order.  Because predecessor {e keys} (not just
    hashes) are folded in, a key changes exactly when the function or
    any of its transitive dependence ancestors changes under the same
    salt: editing one function invalidates precisely that function and
    its transitive dependents, nothing else. *)

val pruned_by_name :
  section_info -> (string * string * reason * refuter) list
(** [si_pruned] with indices resolved to function names. *)

val lint_couplings :
  section:string ->
  cells:int ->
  disjoint:string list ->
  (string * W2.Loc.t * effects) list ->
  W2.Diag.t list
(** W008/W009 via {!W2.Lint.coupling_warnings} over (function, location,
    direct effects) triples: the one bridge from effect records to the
    coupling lint, shared by {!lint_section} and [Modan.lint]. *)

val lint_section : section_info -> W2.Diag.t list
(** {!lint_couplings} for one section, fed from the direct (not
    summarized) effects so each warning blames the function whose
    source performs the coupled operation. *)

val lint : t -> W2.Diag.t list
(** {!lint_section} over every section, merged in file order. *)

val check_ir_calls :
  section_info -> Midend.Ir.section -> Midend.Irverify.violation list
(** Cross-check lowered IR against the AST-level call analysis: every
    [Call] instruction must name a function of the section that the
    caller's source also calls, with matching arity, and must not use
    a result the callee does not produce.  Optimizations may {e
    delete} calls, so the check is one-sided (IR calls are a subset of
    AST calls).  Violations carry [vi_pass = Some "depan"]. *)

val report : t -> string
(** Human-readable summary (per section: functions, effects, edges,
    levels, licensed fraction). *)

val to_dot : t -> string
(** Graphviz rendering: one cluster per section, edges labeled with
    their reasons. *)

val to_json : t -> string
(** Machine-readable dump, schema ["warpcc-analyze/3"].  /2 added
    per-function ["purity"], ["summary_hash"] and ["cost"], per-section
    ["pruned"] (with ["refuted_by"] provenance) and
    ["disjoint_globals"], and a top-level ["absint"] flag to the /1
    layout; /3 adds the top-level ["kind"] discriminator (["module"]
    here, ["project"] for {!Modan.to_json}).  The absint fields stay
    present under [--no-absint]: ["pruned"] and ["disjoint_globals"]
    are empty arrays, ["purity"] and ["cost"] are [null]. *)

(** {1 Building blocks shared with [Modan]}

    Both analyzers close set-based effect records over a call graph,
    find data couplings with one index-based enumerator, and collect
    rank-oriented edges with deduplicated reasons in one accumulator. *)

module SS : Set.S with type elt = string

type eff = {
  r : SS.t;  (** globals read *)
  w : SS.t;  (** globals written *)
  sx : bool;  (** sends on X *)
  sy : bool;
  rx : bool;  (** receives on X *)
  ry : bool;
  cs : SS.t;  (** user functions called *)
  lim : bool;  (** the summary lost precision *)
}

val eff_empty : eff
val eff_union : eff -> eff -> eff
val eff_equal : eff -> eff -> bool

type 'r edge_acc
(** Edges under construction, each with a bag of reasons. *)

val edge_acc : rank:(int -> int) -> 'r edge_acc
(** Empty; its edges will point from lower [rank] to higher. *)

val add_reason : 'r edge_acc -> int -> int -> 'r -> unit
(** [add_reason acc i j r] files [r] under the pair [{i, j}], oriented
    by rank; a self-pair is ignored. *)

val acc_edges : 'r edge_acc -> key:('r -> 'k) -> ((int * int) * 'r list) list
(** Every accumulated (from, to) pair, sorted, with its reasons
    deduplicated and sorted by [key]. *)

val add_couplings :
  ?consider:(int -> int -> bool) ->
  'r edge_acc ->
  eff array ->
  global:(string -> 'r) ->
  channel:(W2.Ast.channel -> 'r) ->
  unit
(** Add every data coupling among the effects: [global g] between a
    writer of [g] and each other function accessing [g], then
    [channel c] between every two functions operating on channel [c].
    Works from per-global writer and accessor indexes, never all
    pairs.  Only pairs [consider] accepts (default all) are added. *)
