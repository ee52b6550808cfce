(* Test-only oracles: the dependence-edge code that the classified edge
   list ([Plan.edges]), the per-edge hot flag ([Depan.edge.e_hot]) and
   the shared coupling enumerator ([Depan.add_couplings]) replaced,
   copied from Depan, Modan, Plan and Experiment as they stood before.
   The properties in test_edges.ml check the new code against these. *)

module D = Analysis.Depan
module SS = D.SS
module Ast = W2.Ast

(* Every edge of an edge table as ((from, to), reasons), sorted, with
   the reasons deduplicated. *)
let normalize tbl =
  Hashtbl.fold (fun k rs acc -> (k, List.sort_uniq compare !rs) :: acc) tbl []
  |> List.sort compare

(* --- Depan --- *)

(* The couplings of two summaries: globals one writes and the other
   accesses, and the channels both operate on. *)
let couplings (a : D.eff) (b : D.eff) =
  ( SS.union
      (SS.inter a.w (SS.union b.r b.w))
      (SS.inter (SS.union a.r a.w) b.w),
    (if (a.sx || a.rx) && (b.sx || b.rx) then [ Ast.Chan_x ] else [])
    @ if (a.sy || a.ry) && (b.sy || b.ry) then [ Ast.Chan_y ] else [] )

(* Depan.analyze_section's edge table and its all-pairs data-coupling
   loop over summarized effects. *)
let depan_couplings ~(rankpos : int array) (summary : D.eff array) =
  let n = Array.length summary in
  let edge_tbl : (int * int, D.reason list ref) Hashtbl.t =
    Hashtbl.create 16
  in
  let add_edge i j reason =
    let i, j = if rankpos.(i) <= rankpos.(j) then (i, j) else (j, i) in
    if i <> j then
      match Hashtbl.find_opt edge_tbl (i, j) with
      | Some rs -> rs := reason :: !rs
      | None -> Hashtbl.replace edge_tbl (i, j) (ref [ reason ])
  in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let gs, cs = couplings summary.(i) summary.(j) in
      SS.iter (fun g -> add_edge i j (D.Global_conflict g)) gs;
      List.iter (fun c -> add_edge i j (D.Channel_pair c)) cs
    done
  done;
  normalize edge_tbl

(* Depan.analyze_section's all-pairs hot loop over the uncapped
   summaries: the old [si_hot]. *)
let hot_pairs ~(rankpos : int array) (full_summary : D.eff array) =
  let n = Array.length full_summary in
  let hot = ref [] in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let gs, cs = couplings full_summary.(i) full_summary.(j) in
      if not (SS.is_empty gs && cs = []) then
        hot := (if rankpos.(i) <= rankpos.(j) then (i, j) else (j, i)) :: !hot
    done
  done;
  List.sort compare !hot

(* The canonical rank of a section's functions: SCC id first, section
   order second. *)
let rankpos (si : D.section_info) =
  let n = Array.length si.si_funcs in
  let order =
    List.sort
      (fun a b -> compare (si.si_funcs.(a).fi_scc, a) (si.si_funcs.(b).fi_scc, b))
      (List.init n Fun.id)
  in
  let rankpos = Array.make n 0 in
  List.iteri (fun pos i -> rankpos.(i) <- pos) order;
  rankpos

(* An effect summary back in set form. *)
let eff_of_effects (e : D.effects) : D.eff =
  {
    D.r = SS.of_list e.greads;
    w = SS.of_list e.gwrites;
    sx = List.mem Ast.Chan_x e.sends;
    sy = List.mem Ast.Chan_y e.sends;
    rx = List.mem Ast.Chan_x e.recvs;
    ry = List.mem Ast.Chan_y e.recvs;
    cs = SS.of_list e.calls;
    lim = e.limited;
  }

(* The old [si_hot] of a section, from the same section analyzed with
   no tracking cap (whose summaries are the old uncapped ones). *)
let si_hot (si : D.section_info) ~(uncapped : D.section_info) =
  hot_pairs ~rankpos:(rankpos si)
    (Array.map (fun fi -> eff_of_effects fi.D.fi_summary) uncapped.si_funcs)

let spec_edges_by_name (si : D.section_info) =
  List.filter_map
    (fun (e : D.edge) ->
      if D.edge_confidence e = D.Speculative then
        Some (si.si_funcs.(e.e_from).fi_name, si.si_funcs.(e.e_to).fi_name)
      else None)
    si.si_edges

let hot_pairs_by_name (si : D.section_info) si_hot =
  List.map
    (fun (i, j) -> (si.si_funcs.(i).D.fi_name, si.si_funcs.(j).D.fi_name))
    si_hot

(* --- Plan: the three parallel lists --- *)

let deps_of (t : D.t) : (string * (string * string) list) list =
  List.map
    (fun si ->
      ( si.D.si_name,
        List.map
          (fun (from_name, to_name, _) -> (from_name, to_name))
          (D.edges_by_name si) ))
    t.D.dp_sections

let spec_deps_of (t : D.t) : (string * (string * string) list) list =
  List.map (fun si -> (si.D.si_name, spec_edges_by_name si)) t.D.dp_sections

(* [uncapped] is [t]'s module analyzed with no tracking cap. *)
let hot_deps_of (t : D.t) ~(uncapped : D.t) :
    (string * (string * string) list) list =
  List.map2
    (fun si usi ->
      let hot = hot_pairs_by_name si (si_hot si ~uncapped:usi) in
      ( si.D.si_name,
        List.filter (fun e -> List.mem e hot) (spec_edges_by_name si) ))
    t.D.dp_sections uncapped.D.dp_sections

let proven_deps ~func_deps ~spec_edges : (string * (string * string) list) list =
  List.map
    (fun (sec, edges) ->
      let spec =
        match List.assoc_opt sec spec_edges with
        | Some s -> s
        | None -> []
      in
      (sec, List.filter (fun e -> not (List.mem e spec)) edges))
    func_deps

(* --- Experiment.link_plan over the three lists ([link_pairs] is the
   old [Modan.func_deps]) --- *)

let link_pairs (link : Analysis.Modan.link) =
  List.map (fun (e : Analysis.Modan.xedge) -> (e.x_from, e.x_to)) link.lk_edges

let link_plan_lists ~func_deps ~spec_edges ~hot_edges
    (link : Analysis.Modan.link) =
  let deps = link_pairs link in
  let specs =
    List.filter_map
      (fun (e : Analysis.Modan.xedge) ->
        if Analysis.Modan.xedge_confidence e = D.Speculative then
          Some (e.x_from, e.x_to)
        else None)
      link.lk_edges
  in
  let spec_set = Hashtbl.create (1 + List.length specs) in
  List.iter (fun p -> Hashtbl.replace spec_set p ()) specs;
  let hot =
    List.map
      (fun (s, es) -> (s, List.filter (Hashtbl.mem spec_set) es))
      hot_edges
  in
  ( List.map (fun (s, _) -> (s, deps)) func_deps,
    List.map (fun (s, _) -> (s, specs)) spec_edges,
    hot )

(* --- Modan.compose: the cross-module closure record and its coupling
   block --- *)

type clo = {
  cr : SS.t; (* qualified "module.global" reads *)
  cw : SS.t;
  cx : bool; (* may operate on channel X *)
  cy : bool;
  clim : bool;
}

let clo_of_eff (e : D.eff) =
  { cr = e.r; cw = e.w; cx = e.sx || e.rx; cy = e.sy || e.ry; clim = e.lim }

(* Compose's edge table (ranks are indices) and its writers/accessors
   and channel-pair block, over [clos] with the same-module filter
   [consider]. *)
let modan_couplings ~consider (clos : clo array) =
  let nfuncs = Array.length clos in
  let edge_tbl : (int * int, Analysis.Modan.xreason list ref) Hashtbl.t =
    Hashtbl.create 256
  in
  let add_edge a b reason =
    if a <> b then begin
      let key = if a < b then (a, b) else (b, a) in
      match Hashtbl.find_opt edge_tbl key with
      | Some rs -> if not (List.mem reason !rs) then rs := reason :: !rs
      | None -> Hashtbl.replace edge_tbl key (ref [ reason ])
    end
  in
  let writers = Hashtbl.create 256 (* qualified global -> rank list *) in
  let accessors = Hashtbl.create 256 in
  let push tbl k v =
    match Hashtbl.find_opt tbl k with
    | Some l -> l := v :: !l
    | None -> Hashtbl.replace tbl k (ref [ v ])
  in
  for r = 0 to nfuncs - 1 do
    let c = clos.(r) in
    SS.iter
      (fun g ->
        push writers g r;
        push accessors g r)
      c.cw;
    SS.iter (fun g -> if not (SS.mem g c.cw) then push accessors g r) c.cr
  done;
  Hashtbl.iter
    (fun g ws ->
      let accs = match Hashtbl.find_opt accessors g with
        | Some l -> !l
        | None -> []
      in
      List.iter
        (fun w ->
          List.iter
            (fun a ->
              if w <> a && consider w a then
                add_edge w a (Analysis.Modan.Xmodule_global g))
            accs)
        !ws)
    writers;
  let chan_pairs get chan =
    let touchers = ref [] in
    for r = nfuncs - 1 downto 0 do
      if get clos.(r) then touchers := r :: !touchers
    done;
    let ts = !touchers in
    List.iteri
      (fun i a ->
        List.iteri
          (fun j b ->
            if j > i && consider a b then
              add_edge a b (Analysis.Modan.Xmodule_channel chan))
          ts)
      ts
  in
  chan_pairs (fun c -> c.cx) Ast.Chan_x;
  chan_pairs (fun c -> c.cy) Ast.Chan_y;
  normalize edge_tbl
