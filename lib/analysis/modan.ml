(* Modular cross-module dependence analysis: interface summaries, the
   warpcc-wsi/1 artifact, and the link-time DAG composer.  See the
   interface for the architecture; the load-bearing soundness fact is
   that Absint havocs unresolved calls, so a per-module refinement is
   never less conservative than the whole-program one and composition
   needs no re-refutation pass. *)

open W2

let spf = Printf.sprintf
let md5 s = Digest.to_hex (Digest.string s)

module SS = Depan.SS

type func_summary = {
  ws_name : string;
  ws_loc : Loc.t;
  ws_params : Ast.ty list;
  ws_ret : Ast.ty option;
  ws_exported : bool;
  ws_index : int;
  ws_scc : int;
  ws_direct : Depan.effects;
  ws_effects : Depan.effects;
  ws_xcalls : string list;
  ws_hash : string;
  ws_key : string;
  ws_absint : Absint.summary option;
}

type module_summary = {
  ms_module : string;
  ms_file : string;
  ms_section : string;
  ms_cells : int;
  ms_imports : (string * Loc.t * Ast.import_sig list) list;
  ms_exports : (string * Loc.t) list;
  ms_globals : string list;
  ms_disjoint : string list;
  ms_funcs : func_summary array;
  ms_edges : (string * string * Depan.reason list) list;
}

(* ---------- separate analysis ---------- *)

let summarize ?(deps = []) ?sound ?max_tracked ?(absint = true) ?(file = "")
    (m : Ast.modul) =
  (match m.Ast.sections with
  | [ _ ] -> ()
  | _ -> invalid_arg "Modan.summarize: expected exactly one section");
  let sec = List.hd m.Ast.sections in
  let dp = Depan.analyze ?sound ?max_tracked ~absint m in
  let si = List.hd dp.Depan.dp_sections in
  let local = Hashtbl.create 16 in
  Array.iter
    (fun fi -> Hashtbl.replace local fi.Depan.fi_name ())
    si.Depan.si_funcs;
  let xcalls =
    Array.map
      (fun (fi : Depan.func_info) ->
        List.filter
          (fun c -> not (Hashtbl.mem local c))
          fi.Depan.fi_summary.Depan.calls)
      si.Depan.si_funcs
  in
  (* A cross-module callee takes its key from the last summary in
     [deps] that defines the name, and from that summary's last
     function of the name.  Only the names this module calls are
     looked up, in one pass over [deps]. *)
  let dep_key = Hashtbl.create 16 in
  Array.iter (List.iter (fun x -> Hashtbl.replace dep_key x None)) xcalls;
  if Hashtbl.length dep_key > 0 then
    List.iter
      (fun d ->
        Array.iter
          (fun w ->
            if Hashtbl.mem dep_key w.ws_name then
              Hashtbl.replace dep_key w.ws_name (Some w.ws_key))
          d.ms_funcs)
      deps;
  let src_funcs = Array.of_list sec.Ast.funcs in
  let funcs =
    Array.mapi
      (fun i (fi : Depan.func_info) ->
        let f = src_funcs.(i) in
        let xcalls = xcalls.(i) in
        let key =
          md5
            (String.concat "\n"
               (fi.Depan.fi_hash
               :: List.map
                    (fun x ->
                      match Hashtbl.find dep_key x with
                      | Some k -> k
                      | None -> "unresolved:" ^ x)
                    xcalls))
        in
        {
          ws_name = fi.Depan.fi_name;
          ws_loc = fi.Depan.fi_loc;
          ws_params = List.map (fun (p : Ast.param) -> p.Ast.pty) f.Ast.params;
          ws_ret = f.Ast.ret;
          ws_exported = Ast.exports_function m fi.Depan.fi_name;
          ws_index = fi.Depan.fi_index;
          ws_scc = fi.Depan.fi_scc;
          ws_direct = fi.Depan.fi_direct;
          ws_effects = fi.Depan.fi_summary;
          ws_xcalls = xcalls;
          ws_hash = fi.Depan.fi_hash;
          ws_key = key;
          ws_absint = fi.Depan.fi_absint;
        })
      si.Depan.si_funcs
  in
  {
    ms_module = m.Ast.mname;
    ms_file = file;
    ms_section = sec.Ast.sname;
    ms_cells = sec.Ast.cells;
    ms_imports =
      List.map
        (fun (im : Ast.import_decl) ->
          (im.Ast.im_module, im.Ast.im_loc, im.Ast.im_sigs))
        m.Ast.imports;
    ms_exports =
      List.map
        (fun (e : Ast.export_decl) -> (e.Ast.ex_name, e.Ast.ex_loc))
        m.Ast.exports;
    ms_globals =
      List.sort compare (List.map (fun (d : Ast.decl) -> d.Ast.dname) sec.Ast.globals);
    ms_disjoint = si.Depan.si_disjoint;
    ms_funcs = funcs;
    ms_edges = Depan.edges_by_name si;
  }

let lint ms =
  Depan.lint_couplings ~section:ms.ms_section ~cells:ms.ms_cells
    ~disjoint:ms.ms_disjoint
    (Array.to_list ms.ms_funcs
    |> List.map (fun w -> (w.ws_name, w.ws_loc, w.ws_direct)))

(* ---------- the warpcc-wsi/1 artifact ---------- *)

exception Artifact_error of string

let artifact_schema = "warpcc-wsi/1"
let afail fmt = Printf.ksprintf (fun s -> raise (Artifact_error s)) fmt

let rec ty_str = function
  | Ast.Tint -> "int"
  | Ast.Tfloat -> "float"
  | Ast.Tbool -> "bool"
  | Ast.Tarray (n, t) -> spf "array:%d:%s" n (ty_str t)

let ty_parse s =
  let rec go = function
    | "int" :: rest -> (Ast.Tint, rest)
    | "float" :: rest -> (Ast.Tfloat, rest)
    | "bool" :: rest -> (Ast.Tbool, rest)
    | "array" :: n :: rest ->
      let n =
        try int_of_string n with _ -> afail "bad array length %S" n
      in
      let t, rest = go rest in
      (Ast.Tarray (n, t), rest)
    | t -> afail "bad type %S" (String.concat ":" t)
  in
  match go (String.split_on_char ':' s) with
  | t, [] -> t
  | _ -> afail "trailing type tokens in %S" s

let params_str = function
  | [] -> "-"
  | ps -> String.concat "," (List.map ty_str ps)

let params_parse = function
  | "-" -> []
  | s -> List.map ty_parse (String.split_on_char ',' s)

let ret_str = function None -> "unit" | Some t -> ty_str t
let ret_parse = function "unit" -> None | s -> Some (ty_parse s)

let chan_str = Ast.channel_to_string

let chan_parse s =
  match Ast.channel_of_string s with
  | Some c -> c
  | None -> afail "bad channel %S" s

let itv_str { Absint.lo; hi } =
  spf "[%s,%s]"
    (match lo with Some n -> string_of_int n | None -> "-inf")
    (match hi with Some n -> string_of_int n | None -> "inf")

let itv_parse s =
  let n = String.length s in
  if n < 2 || s.[0] <> '[' || s.[n - 1] <> ']' then afail "bad interval %S" s;
  match String.split_on_char ',' (String.sub s 1 (n - 2)) with
  | [ lo; hi ] ->
    let b inf v = if v = inf then None else
        try Some (int_of_string v) with _ -> afail "bad bound %S" v
    in
    { Absint.lo = b "-inf" lo; hi = b "inf" hi }
  | _ -> afail "bad interval %S" s

let region_str = function
  | Absint.Empty -> "empty"
  | Absint.All -> "all"
  | Absint.Slices l -> String.concat "+" (List.map itv_str l)

let region_parse = function
  | "empty" -> Absint.Empty
  | "all" -> Absint.All
  | s -> Absint.Slices (List.map itv_parse (String.split_on_char '+' s))

let names_str = String.concat ","
let names_parse = function "" -> [] | s -> String.split_on_char ',' s

let chans_str cs = String.concat "," (List.map chan_str cs)
let chans_parse s = List.map chan_parse (names_parse s)

let eff_str (e : Depan.effects) =
  spf "r=%s w=%s s=%s v=%s c=%s lim=%d" (names_str e.Depan.greads)
    (names_str e.Depan.gwrites) (chans_str e.Depan.sends)
    (chans_str e.Depan.recvs) (names_str e.Depan.calls)
    (if e.Depan.limited then 1 else 0)

let eff_parse line =
  let field tok tag =
    let tn = String.length tag in
    if String.length tok < tn + 1 || String.sub tok 0 (tn + 1) <> tag ^ "=" then
      afail "expected %s= in effects line %S" tag line
    else String.sub tok (tn + 1) (String.length tok - tn - 1)
  in
  match String.split_on_char ' ' line with
  | [ r; w; s; v; c; lim ] ->
    {
      Depan.greads = names_parse (field r "r");
      gwrites = names_parse (field w "w");
      sends = chans_parse (field s "s");
      recvs = chans_parse (field v "v");
      calls = names_parse (field c "c");
      limited = field lim "lim" = "1";
    }
  | _ -> afail "bad effects line %S" line

let reason_parse s =
  match Depan.reason_of_string s with
  | Some r -> r
  | None -> afail "bad edge reason %S" s

let loc_str (l : Loc.t) = spf "%d %d %S" l.Loc.line l.Loc.col l.Loc.file

let loc_parse line col file =
  try
    Scanf.sscanf file "%S" (fun f ->
        { Loc.file = f; line = int_of_string line; col = int_of_string col })
  with _ -> afail "bad location %s %s %s" line col file

let to_artifact (ms : module_summary) =
  let buf = Buffer.create 4096 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line "%s" artifact_schema;
  line "module %s" ms.ms_module;
  line "file %S" ms.ms_file;
  line "section %s" ms.ms_section;
  line "cells %d" ms.ms_cells;
  List.iter
    (fun (p, loc, sigs) ->
      line "import %s %s" p (loc_str loc);
      List.iter
        (fun (s : Ast.import_sig) ->
          line "isig %s %s %s %s" s.Ast.is_name (params_str s.Ast.is_params)
            (ret_str s.Ast.is_ret) (loc_str s.Ast.is_loc))
        sigs)
    ms.ms_imports;
  List.iter (fun (e, loc) -> line "export %s %s" e (loc_str loc)) ms.ms_exports;
  List.iter (fun g -> line "global %s" g) ms.ms_globals;
  List.iter (fun g -> line "disjoint %s" g) ms.ms_disjoint;
  Array.iter
    (fun w ->
      line "func %s" w.ws_name;
      line "loc %s" (loc_str w.ws_loc);
      line "sig %s %s" (params_str w.ws_params) (ret_str w.ws_ret);
      line "exported %d" (if w.ws_exported then 1 else 0);
      line "index %d" w.ws_index;
      line "scc %d" w.ws_scc;
      line "direct %s" (eff_str w.ws_direct);
      line "closed %s" (eff_str w.ws_effects);
      line "xcalls %s" (names_str w.ws_xcalls);
      line "hash %s" w.ws_hash;
      line "key %s" w.ws_key;
      (match w.ws_absint with
      | None -> line "absint 0"
      | Some s ->
        line "absint 1";
        line "cost %s" (itv_str s.Absint.s_cost);
        line "chanx %s %s" (itv_str s.Absint.s_x.Absint.cu_send)
          (itv_str s.Absint.s_x.Absint.cu_recv);
        line "chany %s %s" (itv_str s.Absint.s_y.Absint.cu_send)
          (itv_str s.Absint.s_y.Absint.cu_recv);
        List.iter
          (fun (g, r) -> line "reads %s %s" g (region_str r))
          s.Absint.s_reads;
        List.iter
          (fun (g, r) -> line "writes %s %s" g (region_str r))
          s.Absint.s_writes);
      line "endfunc")
    ms.ms_funcs;
  List.iter
    (fun (f, t, rs) ->
      line "edge %s %s %s" f t
        (String.concat "," (List.map Depan.reason_to_string rs)))
    ms.ms_edges;
  line "end";
  Buffer.contents buf

let of_artifact text =
  let lines = ref (String.split_on_char '\n' text) in
  let next () =
    match !lines with
    | [] -> afail "truncated artifact"
    | l :: rest ->
      lines := rest;
      l
  in
  let peek () = match !lines with [] -> "" | l :: _ -> l in
  (* one line = tag + space-separated operands; locations are the last
     three operands of their line, with the file %S-quoted (it may
     contain spaces, so it must come last) *)
  let tag_of l =
    match String.index_opt l ' ' with
    | None -> (l, "")
    | Some i ->
      (String.sub l 0 i, String.sub l (i + 1) (String.length l - i - 1))
  in
  let words s = match s with "" -> [] | s -> String.split_on_char ' ' s in
  let loc_of_words = function
    | line :: col :: (_ :: _ as file) ->
      loc_parse line col (String.concat " " file)
    | w -> afail "bad location %S" (String.concat " " w)
  in
  let expect tag =
    let t, rest = tag_of (next ()) in
    if t <> tag then afail "expected %S, got %S" tag t else rest
  in
  if next () <> artifact_schema then afail "not a %s artifact" artifact_schema;
  let ms_module = expect "module" in
  let ms_file =
    try Scanf.sscanf (expect "file") "%S" (fun f -> f)
    with _ -> afail "bad file line"
  in
  let ms_section = expect "section" in
  let ms_cells =
    try int_of_string (expect "cells") with _ -> afail "bad cells line"
  in
  let imports = ref [] and exports = ref [] and globals = ref [] in
  let disjoint = ref [] and funcs = ref [] and edges = ref [] in
  let parse_func name =
    let loc = loc_of_words (words (expect "loc")) in
    let params, ret =
      match words (expect "sig") with
      | [ p; r ] -> (params_parse p, ret_parse r)
      | _ -> afail "bad sig line"
    in
    let exported = expect "exported" = "1" in
    let index =
      try int_of_string (expect "index") with _ -> afail "bad index"
    in
    let scc = try int_of_string (expect "scc") with _ -> afail "bad scc" in
    let direct = eff_parse (expect "direct") in
    let closed = eff_parse (expect "closed") in
    let xcalls = names_parse (expect "xcalls") in
    let hash = expect "hash" in
    let key = expect "key" in
    let absint =
      match expect "absint" with
      | "0" -> None
      | "1" ->
        let cost = itv_parse (expect "cost") in
        let cu tagname =
          match words (expect tagname) with
          | [ s; r ] -> { Absint.cu_send = itv_parse s; cu_recv = itv_parse r }
          | _ -> afail "bad %s line" tagname
        in
        let x = cu "chanx" in
        let y = cu "chany" in
        let regs tagname =
          let acc = ref [] in
          let continue = ref true in
          while !continue do
            match tag_of (peek ()) with
            | t, rest when t = tagname -> (
              ignore (next ());
              match words rest with
              | [ g; r ] -> acc := (g, region_parse r) :: !acc
              | _ -> afail "bad %s line" tagname)
            | _ -> continue := false
          done;
          List.rev !acc
        in
        let reads = regs "reads" in
        let writes = regs "writes" in
        Some
          {
            Absint.s_reads = reads;
            s_writes = writes;
            s_x = x;
            s_y = y;
            s_cost = cost;
          }
      | s -> afail "bad absint flag %S" s
    in
    (match next () with
    | "endfunc" -> ()
    | l -> afail "expected endfunc, got %S" l);
    {
      ws_name = name;
      ws_loc = loc;
      ws_params = params;
      ws_ret = ret;
      ws_exported = exported;
      ws_index = index;
      ws_scc = scc;
      ws_direct = direct;
      ws_effects = closed;
      ws_xcalls = xcalls;
      ws_hash = hash;
      ws_key = key;
      ws_absint = absint;
    }
  in
  let finished = ref false in
  while not !finished do
    match tag_of (next ()) with
    | "end", _ -> finished := true
    | "import", rest -> (
      match words rest with
      | p :: (_ :: _ :: _ as locw) ->
        let loc = loc_of_words locw in
        let sigs = ref [] in
        let more = ref true in
        while !more do
          match tag_of (peek ()) with
          | "isig", rest -> (
            ignore (next ());
            match words rest with
            | name :: params :: ret :: (_ :: _ :: _ as locw) ->
              sigs :=
                {
                  Ast.is_name = name;
                  is_params = params_parse params;
                  is_ret = ret_parse ret;
                  is_loc = loc_of_words locw;
                }
                :: !sigs
            | _ -> afail "bad isig line")
          | _ -> more := false
        done;
        imports := (p, loc, List.rev !sigs) :: !imports
      | _ -> afail "bad import line")
    | "export", rest -> (
      match words rest with
      | e :: (_ :: _ :: _ as locw) ->
        exports := (e, loc_of_words locw) :: !exports
      | _ -> afail "bad export line")
    | "global", g -> globals := g :: !globals
    | "disjoint", g -> disjoint := g :: !disjoint
    | "func", name -> funcs := parse_func name :: !funcs
    | "edge", rest -> (
      match words rest with
      | [ f; t; rs ] ->
        edges := (f, t, List.map reason_parse (names_parse rs)) :: !edges
      | [ f; t ] -> edges := (f, t, []) :: !edges
      | _ -> afail "bad edge line")
    | t, _ -> afail "unexpected line tag %S" t
  done;
  {
    ms_module;
    ms_file;
    ms_section;
    ms_cells;
    ms_imports = List.rev !imports;
    ms_exports = List.rev !exports;
    ms_globals = List.rev !globals;
    ms_disjoint = List.rev !disjoint;
    ms_funcs = Array.of_list (List.rev !funcs);
    ms_edges = List.rev !edges;
  }

(* ---------- link-time composition ---------- *)

exception Link_error of string

let lfail fmt = Printf.ksprintf (fun s -> raise (Link_error s)) fmt

type xreason =
  | Local of Depan.reason
  | Import_of
  | Xmodule_global of string
  | Xmodule_channel of Ast.channel
  | Xsummary_limit

let xreason_to_string = function
  | Local r -> Depan.reason_to_string r
  | Import_of -> "import_of"
  | Xmodule_global g -> "xmodule_global:" ^ g
  | Xmodule_channel c -> "xmodule_channel:" ^ chan_str c
  | Xsummary_limit -> "summary_limit"

let xreason_rank = function
  | Local Depan.Inline_of -> (0, "")
  | Local Depan.Sig_agreement -> (1, "")
  | Import_of -> (2, "")
  | Local (Depan.Global_conflict g) -> (3, g)
  | Xmodule_global g -> (4, g)
  | Local (Depan.Channel_pair c) -> (5, chan_str c)
  | Xmodule_channel c -> (6, chan_str c)
  | Local Depan.Summary_limit -> (7, "")
  | Xsummary_limit -> (8, "")

let xreason_proven = function
  | Local r -> Depan.reason_proven r
  | Import_of -> true
  | Xmodule_global _ | Xmodule_channel _ | Xsummary_limit -> false

type xedge = {
  x_from : string;
  x_from_module : string;
  x_to : string;
  x_to_module : string;
  x_reasons : xreason list;
}

let xedge_confidence e =
  if List.exists xreason_proven e.x_reasons then Depan.Proven
  else Depan.Speculative

type xfunc = {
  xf_name : string;
  xf_module : string;
  xf_rank : int;
  xf_exported : bool;
  xf_limited : bool;
}

type link = {
  lk_modules : module_summary list;
  lk_order : string list;
  lk_sccs : string list list;
  lk_missing : (string * string) list;
  lk_funcs : xfunc list;
  lk_edges : xedge list;
  lk_levels : string list list;
  lk_module_levels : string list list;
  lk_licensed : float;
  lk_diags : Diag.t list;
}

let compose (modules : module_summary list) : link =
  let mods = Array.of_list modules in
  let mod_idx = Hashtbl.create 64 in
  Array.iteri
    (fun i m ->
      if Hashtbl.mem mod_idx m.ms_module then
        lfail "duplicate module '%s' in the link" m.ms_module;
      Hashtbl.replace mod_idx m.ms_module i)
    mods;
  let def_of = Hashtbl.create 256 in
  Array.iteri
    (fun i m ->
      Array.iteri
        (fun j w ->
          if Hashtbl.mem def_of w.ws_name then
            lfail "duplicate function '%s' across the link" w.ws_name;
          Hashtbl.replace def_of w.ws_name (i, j))
        m.ms_funcs)
    mods;
  (* module condensation over importer -> provider edges: provider SCCs
     get lower ids, so the ids double as the condensation's
     topological rank *)
  let providers =
    Array.map
      (fun m -> List.filter_map (fun (p, _, _) -> Hashtbl.find_opt mod_idx p) m.ms_imports)
      mods
  in
  let scc_of = Digraph.sccs providers in
  let scc_members = Digraph.members scc_of in
  let order = List.concat (Array.to_list scc_members) in
  let mod_name i = mods.(i).ms_module in
  let lk_order = List.map mod_name order in
  let lk_sccs =
    Array.to_list scc_members
    |> List.filter_map (function
         | _ :: _ :: _ as comp -> Some (List.map mod_name comp)
         | _ -> None)
  in
  (* global function ranks: modules in condensation order, functions in
     their module's own canonical order (local SCC id, then section
     index) — so every per-module edge already points low -> high *)
  let nfuncs = Array.fold_left (fun a m -> a + Array.length m.ms_funcs) 0 mods in
  let fmod = Array.make nfuncs 0 (* module index *) in
  let fsum = Array.make nfuncs None in
  let rank_of = Hashtbl.create 256 in
  let next_rank = ref 0 in
  List.iter
    (fun i ->
      let locals =
        List.sort
          (fun a b -> compare (a.ws_scc, a.ws_index) (b.ws_scc, b.ws_index))
          (Array.to_list mods.(i).ms_funcs)
      in
      List.iter
        (fun w ->
          fmod.(!next_rank) <- i;
          fsum.(!next_rank) <- Some w;
          Hashtbl.replace rank_of w.ws_name !next_rank;
          incr next_rank)
        locals)
    order;
  let fsum r = match fsum.(r) with Some w -> w | None -> assert false in
  (* cross-module effect closure over qualified globals: every
     cross-module call is resolved once; a call no module of the link
     defines makes the caller's closure limited *)
  let missing = ref [] in
  let xcallees =
    Array.init nfuncs (fun r ->
        List.filter_map
          (fun x ->
            let found = Hashtbl.find_opt rank_of x in
            if found = None then
              missing := (mods.(fmod.(r)).ms_module, x) :: !missing;
            found)
          (fsum r).ws_xcalls)
  in
  let lk_missing = List.sort_uniq compare !missing in
  (* the closure reuses Depan's effect record, over module-qualified
     globals; calls are already resolved into [xcallees] *)
  let base =
    Array.init nfuncs (fun r ->
        let w = fsum r in
        let e = w.ws_effects in
        let qualify names =
          SS.of_list (List.map (fun g -> mods.(fmod.(r)).ms_module ^ "." ^ g) names)
        in
        {
          Depan.eff_empty with
          r = qualify e.Depan.greads;
          w = qualify e.Depan.gwrites;
          sx = List.mem Ast.Chan_x e.Depan.sends;
          sy = List.mem Ast.Chan_y e.Depan.sends;
          rx = List.mem Ast.Chan_x e.Depan.recvs;
          ry = List.mem Ast.Chan_y e.Depan.recvs;
          lim =
            e.Depan.limited
            || List.compare_lengths xcallees.(r) w.ws_xcalls < 0;
        })
  in
  let clos, _ =
    Digraph.solve xcallees ~equal:Depan.eff_equal ~init:(Array.get base)
      ~step:(fun get r ->
        List.fold_left (fun acc r' -> Depan.eff_union acc (get r')) base.(r)
          xcallees.(r))
  in
  (* a closure is augmented iff its function calls out of its module *)
  let aug r = (fsum r).ws_xcalls <> [] in
  (* edge accumulation: ranks are the indices *)
  let acc = Depan.edge_acc ~rank:Fun.id in
  let add_edge = Depan.add_reason acc in
  (* (a) the modules' own edges, carried over *)
  Array.iter
    (fun m ->
      List.iter
        (fun (f, t, rs) ->
          match (Hashtbl.find_opt rank_of f, Hashtbl.find_opt rank_of t) with
          | Some a, Some b -> List.iter (fun r -> add_edge a b (Local r)) rs
          | _ -> lfail "module '%s' has an edge over unknown functions" m.ms_module)
        m.ms_edges)
    mods;
  (* (b) import_of at direct cross-module call boundaries *)
  for r = 0 to nfuncs - 1 do
    let w = fsum r in
    let local = mods.(fmod.(r)) in
    let defined_here n =
      Array.exists (fun v -> v.ws_name = n) local.ms_funcs
    in
    List.iter
      (fun callee ->
        if not (defined_here callee) then
          match Hashtbl.find_opt rank_of callee with
          | Some r' -> add_edge r' r Import_of
          | None -> ())
      w.ws_direct.Depan.calls
  done;
  (* (c) data conflicts over closed qualified summaries.  Same-module
     pairs are only considered when a closure was augmented — otherwise
     the per-module analysis (absint pruning included) is authoritative
     for the pair. *)
  Depan.add_couplings acc clos
    ~consider:(fun a b -> fmod.(a) <> fmod.(b) || aug a || aug b)
    ~global:(fun g -> Xmodule_global g)
    ~channel:(fun c -> Xmodule_channel c);
  (* (d) blanket pins for limited closures, against every function of
     every other module — the cross-module analogue of sound mode's
     sibling pinning *)
  for r = 0 to nfuncs - 1 do
    if clos.(r).Depan.lim && aug r then
      for r' = 0 to nfuncs - 1 do
        if fmod.(r') <> fmod.(r) then add_edge r r' Xsummary_limit
      done
  done;
  let edges = Depan.acc_edges acc ~key:xreason_rank in
  let lk_edges =
    List.map
      (fun ((a, b), x_reasons) ->
        {
          x_from = (fsum a).ws_name;
          x_from_module = mods.(fmod.(a)).ms_module;
          x_to = (fsum b).ws_name;
          x_to_module = mods.(fmod.(b)).ms_module;
          x_reasons;
        })
      edges
  in
  (* levels, licensed fraction, func list *)
  let preds = Array.make nfuncs [] in
  let succs = Array.make nfuncs [] in
  List.iter
    (fun ((a, b), _) ->
      preds.(b) <- a :: preds.(b);
      succs.(a) <- b :: succs.(a))
    edges;
  let lk_levels =
    List.map (List.map (fun r -> (fsum r).ws_name)) (Digraph.levels preds)
  in
  (* antichains of the condensation: a cycle shares one level *)
  let scc_preds =
    Array.map
      (List.concat_map (fun i ->
           List.filter_map
             (fun p -> if scc_of.(p) <> scc_of.(i) then Some scc_of.(p) else None)
             providers.(i)))
      scc_members
  in
  let lk_module_levels =
    List.map
      (List.concat_map (fun s -> List.map mod_name scc_members.(s)))
      (Digraph.levels scc_preds)
  in
  let lk_licensed = Digraph.licensed_fraction succs in
  let lk_funcs =
    List.init nfuncs (fun r ->
        let w = fsum r in
        {
          xf_name = w.ws_name;
          xf_module = mods.(fmod.(r)).ms_module;
          xf_rank = r;
          xf_exported = w.ws_exported;
          xf_limited = clos.(r).Depan.lim;
        })
  in
  (* ---- cross-module lints ---- *)
  let diags = ref [] in
  let warn ?func ~code ~loc msg =
    diags := Diag.make ?func ~code ~severity:Diag.Warning ~loc msg :: !diags
  in
  (* W010: import declarations vs the link *)
  Array.iter
    (fun m ->
      List.iter
        (fun (p, iloc, sigs) ->
          match Hashtbl.find_opt mod_idx p with
          | None ->
            warn ~code:"W010" ~loc:iloc
              (spf "import from module '%s', which is not part of the link" p)
          | Some pi ->
            List.iter
              (fun (s : Ast.import_sig) ->
                match Hashtbl.find_opt def_of s.Ast.is_name with
                | None ->
                  warn ~code:"W010" ~loc:s.Ast.is_loc
                    (spf "imported function '%s' is not defined by any module of the link"
                       s.Ast.is_name)
                | Some (di, dj) ->
                  let d = mods.(di).ms_funcs.(dj) in
                  if di <> pi then
                    warn ~code:"W010" ~loc:s.Ast.is_loc
                      (spf "imported function '%s' is defined by module '%s', not '%s'"
                         s.Ast.is_name mods.(di).ms_module p)
                  else if not d.ws_exported then
                    warn ~code:"W010" ~loc:s.Ast.is_loc
                      (spf "function '%s' is not exported by module '%s'"
                         s.Ast.is_name p)
                  else if d.ws_params <> s.Ast.is_params || d.ws_ret <> s.Ast.is_ret
                  then
                    warn ~code:"W010" ~loc:s.Ast.is_loc
                      (spf
                         "signature mismatch for '%s': import says (%s) : %s but '%s' defines (%s) : %s"
                         s.Ast.is_name
                         (String.concat ", " (List.map ty_str s.Ast.is_params))
                         (ret_str s.Ast.is_ret) p
                         (String.concat ", " (List.map ty_str d.ws_params))
                         (ret_str d.ws_ret)))
              sigs)
        m.ms_imports)
    mods;
  (* W011: cross-module write to a global another module localizes *)
  let global_owners = Hashtbl.create 64 in
  Array.iteri
    (fun i m -> List.iter (fun g -> Hashtbl.add global_owners g i) m.ms_globals)
    mods;
  let w011_seen = Hashtbl.create 16 in
  Array.iteri
    (fun i m ->
      Array.iter
        (fun w ->
          List.iter
            (fun g ->
              List.iter
                (fun o ->
                  if o <> i && not (Hashtbl.mem w011_seen (i, g, o)) then begin
                    Hashtbl.replace w011_seen (i, g, o) ();
                    warn ~func:w.ws_name ~code:"W011" ~loc:w.ws_loc
                      (spf
                         "write to global '%s', which module '%s' also localizes; section globals are per-module state — rename one to avoid confusion"
                         g mods.(o).ms_module)
                  end)
                (List.rev (Hashtbl.find_all global_owners g)))
            w.ws_direct.Depan.gwrites)
        m.ms_funcs)
    mods;
  (* W012: dead exports *)
  let imported_names = Hashtbl.create 256 in
  Array.iter
    (fun m ->
      List.iter
        (fun (_, _, sigs) ->
          List.iter
            (fun (s : Ast.import_sig) ->
              Hashtbl.replace imported_names s.Ast.is_name ())
            sigs)
        m.ms_imports)
    mods;
  Array.iter
    (fun m ->
      List.iter
        (fun (e, eloc) ->
          if not (Hashtbl.mem imported_names e) then
            warn ~code:"W012" ~loc:eloc
              (spf "exported function '%s' is never imported in this link" e))
        m.ms_exports)
    mods;
  {
    lk_modules = modules;
    lk_order;
    lk_sccs;
    lk_missing;
    lk_funcs;
    lk_edges;
    lk_levels;
    lk_module_levels;
    lk_licensed;
    lk_diags = Diag.sort !diags;
  }

(* ---------- whole-program reference ---------- *)

let inline_project ?(name = "linked") (modules : Ast.modul list) : Ast.modul =
  if modules = [] then invalid_arg "Modan.inline_project: empty project";
  List.iter
    (fun (m : Ast.modul) ->
      match m.Ast.sections with
      | [ _ ] -> ()
      | _ ->
        invalid_arg
          (spf "Modan.inline_project: module '%s' must have exactly one section"
             m.Ast.mname))
    modules;
  let seen = Hashtbl.create 256 in
  List.iter
    (fun (m : Ast.modul) ->
      List.iter
        (fun (f : Ast.func) ->
          if Hashtbl.mem seen f.Ast.fname then
            invalid_arg
              (spf "Modan.inline_project: duplicate function '%s'" f.Ast.fname);
          Hashtbl.replace seen f.Ast.fname ())
        (List.hd m.Ast.sections).Ast.funcs)
    modules;
  let rename_func rename (f : Ast.func) =
    (* parameters and locals shadow section globals (W2 scoping is
       function-level, with no block scoping), so shadowed names stay
       untouched; a global for variable follows its global *)
    let shadow =
      SS.of_list
        (List.map (fun (p : Ast.param) -> p.Ast.pname) f.Ast.params
        @ List.map (fun (d : Ast.decl) -> d.Ast.dname) f.Ast.locals)
    in
    let rn v =
      if SS.mem v shadow then v
      else match Hashtbl.find_opt rename v with Some v' -> v' | None -> v
    in
    { f with Ast.body = Ast.rename rn f.Ast.body }
  in
  let globals = ref [] and funcs = ref [] and cells = ref 1 in
  List.iter
    (fun (m : Ast.modul) ->
      let sec = List.hd m.Ast.sections in
      cells := max !cells sec.Ast.cells;
      let rename = Hashtbl.create 8 in
      List.iter
        (fun (d : Ast.decl) ->
          Hashtbl.replace rename d.Ast.dname (m.Ast.mname ^ "__" ^ d.Ast.dname))
        sec.Ast.globals;
      List.iter
        (fun (d : Ast.decl) ->
          globals :=
            { d with Ast.dname = m.Ast.mname ^ "__" ^ d.Ast.dname } :: !globals)
        sec.Ast.globals;
      List.iter (fun f -> funcs := rename_func rename f :: !funcs) sec.Ast.funcs)
    modules;
  {
    Ast.mname = name;
    imports = [];
    exports = [];
    sections =
      [
        {
          Ast.sname = "linked";
          cells = !cells;
          globals = List.rev !globals;
          funcs = List.rev !funcs;
          secloc = Loc.dummy;
        };
      ];
    mloc = Loc.dummy;
  }

(* ---------- output ---------- *)

let report link =
  let buf = Buffer.create 2048 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  let nfuncs = List.length link.lk_funcs in
  line "link: %d modules, %d functions" (List.length link.lk_modules) nfuncs;
  line "order: %s" (String.concat " " link.lk_order);
  if link.lk_sccs <> [] then
    List.iter
      (fun scc -> line "import cycle: %s" (String.concat " " scc))
      link.lk_sccs;
  List.iter
    (fun (m, f) -> line "missing: %s imports undefined '%s'" m f)
    link.lk_missing;
  List.iter
    (fun (m : module_summary) ->
      line "  module %s: %d functions, %d exports, %d local edges"
        m.ms_module (Array.length m.ms_funcs)
        (List.length m.ms_exports) (List.length m.ms_edges))
    link.lk_modules;
  let cross =
    List.filter (fun e -> e.x_from_module <> e.x_to_module) link.lk_edges
  in
  line "edges: %d (%d cross-module)" (List.length link.lk_edges)
    (List.length cross);
  List.iter
    (fun e ->
      line "  %s -> %s [%s]" e.x_from e.x_to
        (String.concat ", " (List.map xreason_to_string e.x_reasons)))
    cross;
  line "levels: %d (modules: %d)" (List.length link.lk_levels)
    (List.length link.lk_module_levels);
  line "licensed fraction: %.3f" link.lk_licensed;
  List.iter (fun d -> line "%s" (Diag.to_string d)) link.lk_diags;
  Buffer.contents buf

let to_dot link =
  let buf = Buffer.create 2048 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line "digraph link {";
  line "  rankdir=LR;";
  line "  node [shape=box, fontsize=10];";
  List.iteri
    (fun i (m : module_summary) ->
      line "  subgraph cluster_%d {" i;
      line "    label=%S;" m.ms_module;
      Array.iter
        (fun w ->
          line "    %S [style=%s];" w.ws_name
            (if w.ws_exported then "bold" else "solid"))
        m.ms_funcs;
      line "  }")
    link.lk_modules;
  List.iter
    (fun e ->
      let style =
        if xedge_confidence e = Depan.Speculative then ", style=dashed" else ""
      in
      line "  %S -> %S [label=%S%s];" e.x_from e.x_to
        (String.concat "\\n" (List.map xreason_to_string e.x_reasons))
        style)
    link.lk_edges;
  line "}";
  Buffer.contents buf

let to_json link =
  let open Stats.Json in
  let func w =
    Obj [ ("name", Str w.ws_name); ("exported", Bool w.ws_exported);
          ("xcalls", strings w.ws_xcalls); ("summary_hash", Str w.ws_hash);
          ("key", Str w.ws_key) ]
  in
  let local_edge (f, t, rs) =
    Obj [ ("from", Str f); ("to", Str t);
          ("reasons", strings (List.map Depan.reason_to_string rs)) ]
  in
  let modul (m : module_summary) =
    Obj [ ("name", Str m.ms_module); ("file", Str m.ms_file);
          ("section", Str m.ms_section); ("cells", Int m.ms_cells);
          ("globals", strings m.ms_globals);
          ("exports", strings (List.map fst m.ms_exports));
          ("functions", List (Array.to_list (Array.map func m.ms_funcs)));
          ("local_edges", List (List.map local_edge m.ms_edges)) ]
  in
  let edge e =
    Obj [ ("from", Str e.x_from); ("from_module", Str e.x_from_module);
          ("to", Str e.x_to); ("to_module", Str e.x_to_module);
          ("confidence", Str (Depan.confidence_to_string (xedge_confidence e)));
          ("reasons", strings (List.map xreason_to_string e.x_reasons)) ]
  in
  let diag (d : Diag.t) =
    Obj [ ("code", Str d.d_code);
          ("severity", Str (Diag.severity_to_string d.d_severity));
          ("file", Str d.d_loc.file); ("line", Int d.d_loc.line);
          ("col", Int d.d_loc.col); ("function", option (fun f -> Str f) d.d_func);
          ("message", Str d.d_message) ]
  in
  let groups gs = List (List.map strings gs) in
  to_string
    (Obj [ ("schema", Str "warpcc-analyze/3"); ("kind", Str "project");
           ("modules", List (List.map modul link.lk_modules));
           ("order", strings link.lk_order); ("sccs", groups link.lk_sccs);
           ("missing", List (List.map (fun (m, f) -> strings [ m; f ]) link.lk_missing));
           ("edges", List (List.map edge link.lk_edges));
           ("levels", groups link.lk_levels);
           ("module_levels", groups link.lk_module_levels);
           ("licensed_fraction", Fixed (6, link.lk_licensed));
           ("diagnostics", List (List.map diag link.lk_diags)) ])
