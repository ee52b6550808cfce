(* Interprocedural dependence analysis over a checked W2 module.

   Everything here is AST-level and runs in the sequential master
   (phase 1), before any task is dispatched: the analyzer charges no
   simulated time, so schedules that ignore its DAG are timed exactly
   as before.

   The core trick is the canonical rank.  Call edges are naturally
   acyclic across SCCs (Tarjan numbers callee SCCs before caller SCCs),
   but global conflicts and channel pairings are symmetric, and a naive
   orientation could cycle with the call edges.  Ranking every function
   by (SCC id, section position) and pointing every edge from lower
   rank to higher makes the result a DAG by construction while keeping
   callees before callers. *)

module Ast = W2.Ast
module SS = Set.Make (String)

type effects = {
  greads : string list;
  gwrites : string list;
  sends : Ast.channel list;
  recvs : Ast.channel list;
  calls : string list;
  limited : bool;
}

type reason =
  | Inline_of
  | Sig_agreement
  | Global_conflict of string
  | Channel_pair of Ast.channel
  | Summary_limit

let reason_to_string = function
  | Inline_of -> "inline_of"
  | Sig_agreement -> "sig_agreement"
  | Global_conflict g -> "global_conflict:" ^ g
  | Channel_pair c -> "channel_pair:" ^ Ast.channel_to_string c
  | Summary_limit -> "summary_limit"

(* Display (and dedup) order: structural reasons first, then data
   reasons, then the conservative catch-all. *)
let reason_key = function
  | Inline_of -> (0, "")
  | Sig_agreement -> (1, "")
  | Global_conflict g -> (2, g)
  | Channel_pair c -> (3, Ast.channel_to_string c)
  | Summary_limit -> (4, "")

type edge = { e_from : int; e_to : int; reasons : reason list; e_hot : bool }

type confidence = Proven | Speculative

(* Structural reasons are genuine compile-order inputs (the callee's
   body or signature feeds the caller's compilation), so any edge
   carrying one is proven.  Data reasons — global conflicts, channel
   pairings, and the blanket summary-limit pin — are over-approximate:
   the runs they order may be dynamically independent, so edges
   carrying only those are speculative and a dag+spec schedule may
   dispatch past them under the commit protocol. *)
let reason_proven = function
  | Inline_of | Sig_agreement -> true
  | Global_conflict _ | Channel_pair _ | Summary_limit -> false

let edge_confidence (e : edge) : confidence =
  if List.exists reason_proven e.reasons then Proven else Speculative

let confidence_to_string = function
  | Proven -> "proven"
  | Speculative -> "speculative"

type refuter = Refuted_region | Refuted_protocol

let refuter_to_string = function
  | Refuted_region -> "region"
  | Refuted_protocol -> "protocol"

type pruned = {
  p_from : int;
  p_to : int;
  p_reason : reason;
  p_refuted_by : refuter;
}

type func_info = {
  fi_name : string;
  fi_index : int;
  fi_loc : W2.Loc.t;
  fi_arity : int;
  fi_returns : bool;
  fi_inlinable : bool;
  fi_scc : int;
  fi_direct : effects;
  fi_summary : effects;
  fi_hash : string;
  fi_purity : Absint.purity option;
  fi_cost : Absint.itv option;
  fi_absint : Absint.summary option;
}

type section_info = {
  si_name : string;
  si_cells : int;
  si_funcs : func_info array;
  si_edges : edge list;
  si_levels : int list list;
  si_fixpoint_sweeps : int;
  si_pruned : pruned list;
  si_disjoint : string list;
}

type t = {
  dp_module : string;
  dp_sound : bool;
  dp_absint : bool;
  dp_sections : section_info list;
}

(* --- effect sets, and the coupling enumerator shared with Modan --- *)

type eff = {
  r : SS.t; (* globals read *)
  w : SS.t; (* globals written *)
  sx : bool; (* sends on X *)
  sy : bool;
  rx : bool; (* receives on X *)
  ry : bool;
  cs : SS.t; (* user functions called *)
  lim : bool;
}

let eff_empty =
  { r = SS.empty; w = SS.empty; sx = false; sy = false; rx = false;
    ry = false; cs = SS.empty; lim = false }

let eff_union a b =
  {
    r = SS.union a.r b.r;
    w = SS.union a.w b.w;
    sx = a.sx || b.sx;
    sy = a.sy || b.sy;
    rx = a.rx || b.rx;
    ry = a.ry || b.ry;
    cs = SS.union a.cs b.cs;
    lim = a.lim || b.lim;
  }

let eff_equal a b =
  SS.equal a.r b.r && SS.equal a.w b.w && a.sx = b.sx && a.sy = b.sy
  && a.rx = b.rx && a.ry = b.ry && SS.equal a.cs b.cs && a.lim = b.lim

let on_x e = e.sx || e.rx
let on_y e = e.sy || e.ry

(* Do two summaries couple: a global one writes and the other
   accesses, or a channel both operate on? *)
let couples a b =
  let touched e = SS.union e.r e.w in
  (not (SS.disjoint a.w (touched b) && SS.disjoint (touched a) b.w))
  || (on_x a && on_x b)
  || (on_y a && on_y b)

type 'r edge_acc = { rank : int -> int; pairs : (int * int, 'r list) Hashtbl.t }

let edge_acc ~rank = { rank; pairs = Hashtbl.create 64 }

let add_reason acc i j r =
  if i <> j then begin
    let k = if acc.rank i < acc.rank j then (i, j) else (j, i) in
    Hashtbl.replace acc.pairs k
      (r :: Option.value ~default:[] (Hashtbl.find_opt acc.pairs k))
  end

let acc_edges acc ~key =
  Hashtbl.fold
    (fun k rs l -> (k, List.sort_uniq (fun a b -> compare (key a) (key b)) rs) :: l)
    acc.pairs []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* Index-based, never all pairs: the writers and accessors of each
   global meet only each other, then the functions on each channel
   pair up. *)
let add_couplings ?(consider = fun _ _ -> true) acc effs ~global ~channel =
  let writers = Hashtbl.create 64 and accessors = Hashtbl.create 64 in
  Array.iteri
    (fun i e ->
      SS.iter (fun g -> Hashtbl.add writers g i) e.w;
      SS.iter (fun g -> Hashtbl.add accessors g i) (SS.union e.r e.w))
    effs;
  let pair i j r = if i <> j && consider i j then add_reason acc i j r in
  Hashtbl.iter
    (fun g w ->
      List.iter (fun a -> pair w a (global g)) (Hashtbl.find_all accessors g))
    writers;
  List.iter
    (fun (c, on) ->
      let rec pairs = function
        | a :: rest ->
          List.iter (fun b -> pair a b (channel c)) rest;
          pairs rest
        | [] -> ()
      in
      pairs
        (List.filter (fun i -> on effs.(i)) (List.init (Array.length effs) Fun.id)))
    [ (Ast.Chan_x, on_x); (Ast.Chan_y, on_y) ]

let effects_of_eff e =
  {
    greads = SS.elements e.r;
    gwrites = SS.elements e.w;
    sends =
      (if e.sx then [ Ast.Chan_x ] else [])
      @ if e.sy then [ Ast.Chan_y ] else [];
    recvs =
      (if e.rx then [ Ast.Chan_x ] else [])
      @ if e.ry then [ Ast.Chan_y ] else [];
    calls = SS.elements e.cs;
    limited = e.lim;
  }

(* Direct effects of one function's body.  [globals] are the section's
   global names; parameters and locals shadow (the checker rejects such
   shadowing, but staying defensive costs nothing). *)
let direct_effects ~globals (f : Ast.func) : eff =
  let bound =
    SS.union
      (SS.of_list (List.map (fun (p : Ast.param) -> p.pname) f.params))
      (SS.of_list (List.map (fun (d : Ast.decl) -> d.dname) f.locals))
  in
  let is_global n = SS.mem n globals && not (SS.mem n bound) in
  let e = ref eff_empty in
  Ast.iter_stmts
    (fun o ->
      let x = !e in
      e :=
        match o with
        | Ast.Read n when is_global n -> { x with r = SS.add n x.r }
        | Ast.Write n when is_global n -> { x with w = SS.add n x.w }
        | Ast.Call n when not (Ast.is_builtin n) -> { x with cs = SS.add n x.cs }
        | Ast.Send Ast.Chan_x -> { x with sx = true }
        | Ast.Send Ast.Chan_y -> { x with sy = true }
        | Ast.Recv Ast.Chan_x -> { x with rx = true }
        | Ast.Recv Ast.Chan_y -> { x with ry = true }
        | Ast.Read _ | Ast.Write _ | Ast.Call _ -> x)
    f.body;
  !e

(* Cap the tracked-global footprint.  Keeping the lexicographically
   first [max_tracked] names is arbitrary but deterministic; what
   matters is that [lim] records the truncation so sound mode can add
   conservative edges. *)
let cap_eff ~max_tracked e =
  let tracked = SS.union e.r e.w in
  if SS.cardinal tracked <= max_tracked then e
  else
    let kept =
      SS.elements tracked
      |> List.filteri (fun i _ -> i < max_tracked)
      |> SS.of_list
    in
    { e with r = SS.inter e.r kept; w = SS.inter e.w kept; lim = true }

(* --- per-section analysis --- *)

let predecessors n edges =
  let preds = Array.make n [] in
  List.iter (fun e -> preds.(e.e_to) <- e.e_from :: preds.(e.e_to)) edges;
  preds

(* Antichain levels: longest-path depth over the edges. *)
let edge_levels n edges = Digraph.levels (predecessors n edges)

(* Canonical one-line rendering of an effect summary; shared by the
   report and the effect-summary hash. *)
let effects_line (e : effects) =
  let part label = function
    | [] -> []
    | items -> [ Printf.sprintf "%s{%s}" label (String.concat "," items) ]
  in
  let chans cs = List.map Ast.channel_to_string cs in
  let parts =
    part "reads" e.greads @ part "writes" e.gwrites
    @ part "sends" (chans e.sends)
    @ part "recvs" (chans e.recvs)
    @ part "calls" e.calls
    @ if e.limited then [ "(limited)" ] else []
  in
  if parts = [] then "pure" else String.concat " " parts

let analyze_section ~sound ~max_tracked (sec : Ast.section) : section_info =
  let funcs = Array.of_list sec.funcs in
  let n = Array.length funcs in
  let globals =
    SS.of_list (List.map (fun (d : Ast.decl) -> d.dname) sec.globals)
  in
  let by_name = Hashtbl.create 16 in
  Array.iteri
    (fun i (f : Ast.func) -> Hashtbl.replace by_name f.fname i)
    funcs;
  let full_direct = Array.map (direct_effects ~globals) funcs in
  let direct = Array.map (cap_eff ~max_tracked) full_direct in
  let succs =
    Array.map
      (fun e ->
        SS.elements e.cs
        |> List.filter_map (fun name -> Hashtbl.find_opt by_name name))
      direct
  in
  (* Successors are in sorted-name order, so SCC ids depend only on the
     source, and callee SCCs are numbered before their callers'. *)
  let scc = Digraph.sccs succs in
  let scc_members = Digraph.members scc in
  (* Bottom-up SCC fixpoint: a summary is its direct effects joined
     with its callees' summaries. *)
  let close base =
    Digraph.solve succs ~equal:eff_equal ~init:(Array.get base)
      ~step:(fun get i ->
        List.fold_left (fun acc j -> eff_union acc (get j)) base.(i) succs.(i))
  in
  let summary, sweeps = close direct in
  (* Full-precision closure over the UNCAPPED direct effects (the call
     sets are never capped, so the graph is the same): the commit
     oracle's ground truth for whether a pair actually shares state. *)
  let full_summary, _ = close full_direct in
  (* Canonical rank: SCC id first (callees before callers), section
     order second.  Every edge points from lower rank to higher. *)
  let order = List.concat (Array.to_list scc_members) in
  let rankpos = Array.make n 0 in
  List.iteri (fun pos i -> rankpos.(i) <- pos) order;
  let acc = edge_acc ~rank:(Array.get rankpos) in
  let add_edge = add_reason acc in
  let inlinable =
    Array.map
      (W2.Inline.inlinable ~max_lines:W2.Inline.default_max_lines)
      funcs
  in
  (* Call edges (cross-SCC): callee before caller. *)
  Array.iteri
    (fun i js ->
      List.iter
        (fun j ->
          if scc.(j) <> scc.(i) then
            add_edge j i (if inlinable.(j) then Inline_of else Sig_agreement))
        js)
    succs;
  (* Same-SCC members genuinely need each other; serialize them as a
     chain in section order (any topological serialization of a cycle
     is equally conservative). *)
  let rec chain = function
    | a :: (b :: _ as rest) ->
      add_edge a b Sig_agreement;
      chain rest
    | _ -> ()
  in
  Array.iter chain scc_members;
  (* Data coupling, over summarized effects: write/any-access global
     conflicts and shared-channel pairs. *)
  add_couplings acc summary
    ~global:(fun g -> Global_conflict g)
    ~channel:(fun c -> Channel_pair c);
  (* Sound mode: a truncated summary could hide any of the couplings
     above, so pin the limited function against every sibling. *)
  if sound then
    for i = 0 to n - 1 do
      if summary.(i).lim then
        for j = 0 to n - 1 do
          add_edge i j Summary_limit
        done
    done;
  (* An edge is hot when its endpoints' uncapped summaries really share
     written state or a channel: speculating past a hot edge aborts at
     commit time, past a cold one it always commits. *)
  let edges =
    List.map
      (fun ((i, j), reasons) ->
        { e_from = i; e_to = j; reasons;
          e_hot = couples full_summary.(i) full_summary.(j) })
      (acc_edges acc ~key:reason_key)
  in
  (* Stable effect-summary hash, the groundwork for content-addressed
     compilation caching: a function's key covers its own rendered
     source, its closed effect summary, the declarations of the globals
     Lower localizes into it (name and type, in the section order Lower
     lays their storage out in), and — in rank order, so callees are
     already hashed — the keys of everything it calls.  Members of a
     call cycle reference each other by name (their own source is
     already under the digest, so the cycle stays stable). *)
  let hash = Array.make n "" in
  List.iter
    (fun i ->
      let callee_keys =
        SS.elements direct.(i).cs
        |> List.filter_map (fun name -> Hashtbl.find_opt by_name name)
        |> List.map (fun j ->
               if scc.(j) = scc.(i) then "cycle:" ^ funcs.(j).Ast.fname
               else hash.(j))
      in
      hash.(i) <-
        Digest.to_hex
          (Digest.string
             (String.concat "\x00"
                (W2.Pretty.func_to_string funcs.(i)
                :: effects_line (effects_of_eff summary.(i))
                :: String.concat ","
                     (List.map
                        (fun (d : Ast.decl) ->
                          d.dname ^ ":" ^ Ast.ty_to_string d.dty)
                        (Ast.localized_globals sec.globals funcs.(i)))
                :: callee_keys))))
    order;
  let func_info i (f : Ast.func) =
    {
      fi_name = f.fname;
      fi_index = i;
      fi_loc = f.floc;
      fi_arity = List.length f.params;
      fi_returns = f.ret <> None;
      fi_inlinable = inlinable.(i);
      fi_scc = scc.(i);
      fi_direct = effects_of_eff direct.(i);
      fi_summary = effects_of_eff summary.(i);
      fi_hash = hash.(i);
      fi_purity = None;
      fi_cost = None;
      fi_absint = None;
    }
  in
  {
    si_name = sec.sname;
    si_cells = sec.cells;
    si_funcs = Array.mapi func_info funcs;
    si_edges = edges;
    si_levels = edge_levels n edges;
    si_fixpoint_sweeps = sweeps;
    si_pruned = [];
    si_disjoint = [];
  }

(* --- the abstract-interpretation refinement pass --- *)

(* Which refuter, if any, discharges one reason of an edge between
   functions [a] and [b]?  Structural reasons (inlining, signature
   agreement) are genuine compile-order inputs and are never
   refutable. *)
let refute_reason a b = function
  | Global_conflict g ->
    if Absint.global_conflict_refuted a b g then Some Refuted_region
    else None
  | Channel_pair c ->
    if Absint.chan_silent a c || Absint.chan_silent b c then
      Some Refuted_protocol
    else None
  | Summary_limit -> if Absint.conflict_free a b then Some Refuted_region else None
  | Inline_of | Sig_agreement -> None

let refine_section (sec : Ast.section) (si : section_info) : section_info =
  let sums = Array.of_list (List.map snd (Absint.analyze_section sec)) in
  let n = Array.length si.si_funcs in
  let pruned = ref [] in
  let edges =
    List.filter_map
      (fun e ->
        let a = sums.(e.e_from) and b = sums.(e.e_to) in
        let keep =
          List.concat_map
            (fun r ->
              match refute_reason a b r with
              | Some by ->
                pruned :=
                  { p_from = e.e_from; p_to = e.e_to; p_reason = r;
                    p_refuted_by = by }
                  :: !pruned;
                []
              | None -> (
                match r with
                | Summary_limit ->
                  (* Not dischargeable, but nameable: replace the
                     blanket reason with the conflicts the abstract
                     interpretation actually finds (it tracks every
                     global, so it sees past the summary cap). *)
                  let gs, cs = Absint.conflicts a b in
                  if gs = [] && cs = [] then [ r ]
                  else
                    List.map (fun g -> Global_conflict g) gs
                    @ List.map (fun c -> Channel_pair c) cs
                | r -> [ r ]))
            e.reasons
          |> List.sort_uniq (fun a b -> compare (reason_key a) (reason_key b))
        in
        if keep = [] then None else Some { e with reasons = keep })
      si.si_edges
  in
  let pruned = List.rev !pruned in
  (* Globals every write/access pair of which is element-disjoint: the
     W008 false-positive fix downgrades their coupling warning to a
     note.  Pairing is over the functions whose direct effects touch
     the global — the same data W008 itself is computed from. *)
  let touches_directly i g =
    let d = si.si_funcs.(i).fi_direct in
    List.mem g d.greads || List.mem g d.gwrites
  in
  let writes_directly i g = List.mem g si.si_funcs.(i).fi_direct.gwrites in
  let disjoint =
    List.filter_map
      (fun (d : Ast.decl) ->
        let g = d.dname in
        let writers = List.filter (fun i -> writes_directly i g) (List.init n (fun i -> i)) in
        let accessors = List.filter (fun i -> touches_directly i g) (List.init n (fun i -> i)) in
        let coupled =
          writers <> []
          && List.exists (fun i -> not (List.mem i writers) || List.length writers > 1) accessors
        in
        let all_refuted =
          List.for_all
            (fun w ->
              List.for_all
                (fun a ->
                  a = w || Absint.global_conflict_refuted sums.(w) sums.(a) g)
                accessors)
            writers
        in
        if coupled && all_refuted then Some g else None)
      sec.globals
  in
  let funcs =
    Array.mapi
      (fun i fi ->
        {
          fi with
          fi_purity = Some (Absint.summary_purity sums.(i));
          fi_cost = Some sums.(i).Absint.s_cost;
          fi_absint = Some sums.(i);
        })
      si.si_funcs
  in
  {
    si with
    si_funcs = funcs;
    si_edges = edges;
    si_levels = edge_levels n edges;
    si_pruned = pruned;
    si_disjoint = disjoint;
  }

let analyze ?(sound = true) ?(max_tracked = 64) ?(absint = true)
    (m : Ast.modul) : t =
  {
    dp_module = m.mname;
    dp_sound = sound;
    dp_absint = absint;
    dp_sections =
      List.map
        (fun sec ->
          let si = analyze_section ~sound ~max_tracked sec in
          if absint then refine_section sec si else si)
        m.sections;
  }

let section t name =
  List.find_opt (fun s -> s.si_name = name) t.dp_sections

(* --- reachability --- *)

let successors (si : section_info) : int list array =
  let adj = Array.make (Array.length si.si_funcs) [] in
  List.iter (fun e -> adj.(e.e_from) <- e.e_to :: adj.(e.e_from)) si.si_edges;
  adj

let dependent si i j =
  let adj = successors si in
  (Digraph.reach adj i).(j) || (Digraph.reach adj j).(i)

let independent si i j = not (dependent si i j)

let licensed_fraction si = Digraph.licensed_fraction (successors si)

let edges_by_name (si : section_info) =
  List.map
    (fun e ->
      ( si.si_funcs.(e.e_from).fi_name,
        si.si_funcs.(e.e_to).fi_name,
        e.reasons ))
    si.si_edges

(* --- compile-cache key derivation ---

   A function's compile-cache key must change exactly when its
   phase-2/3 artifact could: when its own resolved source changes
   ([fi_hash] covers the rendered text, the closed summary, the
   declarations of the globals it localizes and the callees' hashes),
   when any dependence predecessor changes (an edge means "compile
   that first" — its output is an input of this compilation), or when
   the compiler configuration changes (the salt).  Folding the predecessors' KEYS (not merely their hashes)
   into the digest closes the derivation over the whole [si_edges]
   ancestry, so a one-function edit invalidates precisely the function
   and its transitive dependents — the invalidation contract
   [Parallel_cc.Cache] documents. *)

let cache_salt ~opt_level ~verify_each =
  Printf.sprintf "warpcc-cache/2:-O%d%s" opt_level
    (if verify_each then ":verify-each" else "")

let cache_keys ~salt (si : section_info) : string array =
  let n = Array.length si.si_funcs in
  let preds = predecessors n si.si_edges in
  let keys = Array.make n "" in
  (* [si_edges] form a DAG by construction, so the recursion grounds
     out; predecessor keys are concatenated in ascending index order
     for determinism. *)
  let rec key i =
    if keys.(i) <> "" then keys.(i)
    else begin
      let pk = List.map key (List.sort_uniq compare preds.(i)) in
      let k =
        Digest.to_hex
          (Digest.string
             (String.concat "\x00" (salt :: si.si_funcs.(i).fi_hash :: pk)))
      in
      keys.(i) <- k;
      k
    end
  in
  Array.init n key

let pruned_by_name (si : section_info) =
  List.map
    (fun p ->
      ( si.si_funcs.(p.p_from).fi_name,
        si.si_funcs.(p.p_to).fi_name,
        p.p_reason,
        p.p_refuted_by ))
    si.si_pruned

(* --- lint bridge (W008/W009) --- *)

let lint_couplings ~section ~cells ~disjoint funcs =
  W2.Lint.coupling_warnings ~section ~cells ~disjoint
    (List.map
       (fun (name, loc, e) ->
         {
           W2.Lint.c_func = name;
           c_loc = loc;
           c_greads = e.greads;
           c_gwrites = e.gwrites;
           c_sends = e.sends;
           c_recvs = e.recvs;
         })
       funcs)

let lint_section (si : section_info) : W2.Diag.t list =
  lint_couplings ~section:si.si_name ~cells:si.si_cells ~disjoint:si.si_disjoint
    (Array.to_list si.si_funcs
    |> List.map (fun fi -> (fi.fi_name, fi.fi_loc, fi.fi_direct)))

let lint (t : t) : W2.Diag.t list =
  List.concat_map lint_section t.dp_sections |> W2.Diag.sort

(* --- IR cross-check --- *)

let check_ir_calls (si : section_info) (sec : Midend.Ir.section) :
    Midend.Irverify.violation list =
    let by_name = Hashtbl.create 16 in
    Array.iter
      (fun fi -> Hashtbl.replace by_name fi.fi_name fi)
      si.si_funcs;
    let violations = ref [] in
    let bad ~func ~block msg =
      violations :=
        {
          Midend.Irverify.vi_func = func;
          vi_block = block;
          vi_pass = Some "depan";
          vi_msg = msg;
        }
        :: !violations
    in
    List.iter
      (fun (irf : Midend.Ir.func) ->
        let caller = Hashtbl.find_opt by_name irf.name in
        Array.iteri
          (fun bi (blk : Midend.Ir.block) ->
            List.iter
              (function
                | Midend.Ir.Call (dst, callee, args) -> (
                  match Hashtbl.find_opt by_name callee with
                  | None ->
                    bad ~func:irf.name ~block:bi
                      (Printf.sprintf
                         "IR calls '%s', which is not a function of \
                          section '%s'"
                         callee si.si_name)
                  | Some target ->
                    (match caller with
                    | Some c
                      when not (List.mem callee c.fi_direct.calls) ->
                      bad ~func:irf.name ~block:bi
                        (Printf.sprintf
                           "IR calls '%s' but the source of '%s' never \
                            calls it"
                           callee irf.name)
                    | _ -> ());
                    if List.length args <> target.fi_arity then
                      bad ~func:irf.name ~block:bi
                        (Printf.sprintf
                           "call to '%s' passes %d argument(s); its \
                            source declares %d"
                           callee (List.length args) target.fi_arity);
                    if dst <> None && not target.fi_returns then
                      bad ~func:irf.name ~block:bi
                        (Printf.sprintf
                           "call to '%s' uses a result, but '%s' \
                            returns nothing"
                           callee callee))
                | _ -> ())
              blk.instrs)
          irf.blocks)
      sec.funcs;
    List.rev !violations

(* --- rendering --- *)

let report (t : t) : string =
  let b = Buffer.create 1024 in
  Printf.bprintf b "module %s: %d section(s), %s analysis%s\n" t.dp_module
    (List.length t.dp_sections)
    (if t.dp_sound then "sound" else "best-effort")
    (if t.dp_absint then " + absint" else "");
  List.iter
    (fun si ->
      let n = Array.length si.si_funcs in
      Printf.bprintf b
        "section %s (cells %d): %d function(s), %d edge(s), %d level(s), \
         %d fixpoint sweep(s), licensed %.2f\n"
        si.si_name si.si_cells n (List.length si.si_edges)
        (List.length si.si_levels)
        si.si_fixpoint_sweeps (licensed_fraction si);
      Array.iter
        (fun fi ->
          let purity =
            match fi.fi_purity with
            | Some p -> " " ^ Absint.purity_to_string p
            | None -> ""
          in
          let cost =
            match fi.fi_cost with
            | Some c -> " cost " ^ Absint.itv_to_string c
            | None -> ""
          in
          Printf.bprintf b "  %-12s scc %d%s%s%s  %s\n" fi.fi_name fi.fi_scc
            (if fi.fi_inlinable then " inlinable" else "")
            purity cost
            (effects_line fi.fi_summary))
        si.si_funcs;
      List.iter
        (fun (from_name, to_name, reasons) ->
          Printf.bprintf b "  %s -> %s  [%s]\n" from_name to_name
            (String.concat ", " (List.map reason_to_string reasons)))
        (edges_by_name si);
      List.iter
        (fun (from_name, to_name, reason, by) ->
          Printf.bprintf b "  %s -/> %s  pruned %s (refuted by %s)\n"
            from_name to_name (reason_to_string reason)
            (refuter_to_string by))
        (pruned_by_name si);
      if si.si_disjoint <> [] then
        Printf.bprintf b "  element-disjoint global(s): %s\n"
          (String.concat ", " si.si_disjoint))
    t.dp_sections;
  Buffer.contents b

let to_dot (t : t) : string =
  let b = Buffer.create 1024 in
  Printf.bprintf b "digraph \"%s\" {\n  rankdir=LR;\n  node [shape=box];\n"
    t.dp_module;
  List.iteri
    (fun k si ->
      Printf.bprintf b "  subgraph cluster_%d {\n    label=\"%s (cells %d)\";\n"
        k si.si_name si.si_cells;
      Array.iter
        (fun fi ->
          Printf.bprintf b "    \"%s.%s\" [label=\"%s%s\"];\n" si.si_name
            fi.fi_name fi.fi_name
            (if fi.fi_inlinable then "\\n(inlinable)" else ""))
        si.si_funcs;
      List.iter
        (fun (from_name, to_name, reasons) ->
          Printf.bprintf b "    \"%s.%s\" -> \"%s.%s\" [label=\"%s\"];\n"
            si.si_name from_name si.si_name to_name
            (String.concat "\\n" (List.map reason_to_string reasons)))
        (edges_by_name si);
      List.iter
        (fun (from_name, to_name, reason, by) ->
          Printf.bprintf b
            "    \"%s.%s\" -> \"%s.%s\" [style=dashed, color=gray, \
             label=\"pruned %s\\n(%s)\"];\n"
            si.si_name from_name si.si_name to_name (reason_to_string reason)
            (refuter_to_string by))
        (pruned_by_name si);
      Buffer.add_string b "  }\n")
    t.dp_sections;
  Buffer.add_string b "}\n";
  Buffer.contents b

(* --- JSON (schema warpcc-analyze/3) --- *)

let to_json (t : t) : string =
  let open Stats.Json in
  let channels cs = strings (List.map Ast.channel_to_string cs) in
  let effects (e : effects) =
    Obj [ ("global_reads", strings e.greads); ("global_writes", strings e.gwrites);
          ("sends", channels e.sends); ("recvs", channels e.recvs);
          ("calls", strings e.calls); ("limited", Bool e.limited) ]
  in
  let int n = Int n in
  let cost (c : Absint.itv) = Obj [ ("lo", option int c.lo); ("hi", option int c.hi) ] in
  let func fi =
    Obj [ ("name", Str fi.fi_name); ("index", Int fi.fi_index); ("scc", Int fi.fi_scc);
          ("arity", Int fi.fi_arity); ("returns", Bool fi.fi_returns);
          ("inlinable", Bool fi.fi_inlinable);
          ("purity", option (fun p -> Str (Absint.purity_to_string p)) fi.fi_purity);
          ("summary_hash", Str fi.fi_hash); ("cost", option cost fi.fi_cost);
          ("direct", effects fi.fi_direct); ("summary", effects fi.fi_summary) ]
  in
  let edge (from_name, to_name, reasons) =
    Obj [ ("from", Str from_name); ("to", Str to_name);
          ("reasons", strings (List.map reason_to_string reasons)) ]
  in
  let pruned (from_name, to_name, reason, by) =
    Obj [ ("from", Str from_name); ("to", Str to_name);
          ("reason", Str (reason_to_string reason));
          ("refuted_by", Str (refuter_to_string by)) ]
  in
  let level si l = strings (List.map (fun i -> si.si_funcs.(i).fi_name) l) in
  let section si =
    Obj [ ("name", Str si.si_name); ("cells", Int si.si_cells);
          ("functions", List (Array.to_list (Array.map func si.si_funcs)));
          ("edges", List (List.map edge (edges_by_name si)));
          ("pruned", List (List.map pruned (pruned_by_name si)));
          ("disjoint_globals", strings si.si_disjoint);
          ("levels", List (List.map (level si) si.si_levels));
          ("fixpoint_sweeps", Int si.si_fixpoint_sweeps);
          ("licensed_fraction", Fixed (6, licensed_fraction si)) ]
  in
  to_string
    (Obj [ ("schema", Str "warpcc-analyze/3"); ("kind", Str "module");
           ("module", Str t.dp_module); ("sound", Bool t.dp_sound);
           ("absint", Bool t.dp_absint);
           ("sections", List (List.map section t.dp_sections)) ])
