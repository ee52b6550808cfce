(* Source linter — phase 1, running in the master alongside [Semcheck].

   Unlike the semantic checker, nothing here rejects a program: every
   finding is a [Diag.Warning].  The checks need whole-section context
   (the never-called analysis resolves calls between the functions of a
   section), which is exactly why the paper keeps phase 1 sequential in
   the master process.

   Codes:
     W001  unused variable           W006  constant condition
     W002  unused parameter          W007  function never called in its section
     W003  dead store                W008  global written by one sibling,
     W004  unreachable statement           touched by another
     W005  assignment to a          W009  channel sent but never received
           for-loop variable              in a multi-cell section *)

let warn out ?func ~code ~loc message =
  out (Diag.make ?func ~code ~severity:Diag.Warning ~loc message)

(* --- expression reads --- *)

let iter_reads f =
  Ast.iter_expr (function Ast.Read name -> f name | _ -> ())

(* Is an expression a compile-time constant?  Calls are excluded even
   for builtins: sqrt(-1.0) is a runtime error, not a constant. *)
let rec is_constant (expr : Ast.expr) =
  match expr.e with
  | Ast.Int_lit _ | Ast.Float_lit _ | Ast.Bool_lit _ -> true
  | Ast.Unary (_, operand) -> is_constant operand
  | Ast.Binary (_, left, right) -> is_constant left && is_constant right
  | Ast.Var _ | Ast.Index _ | Ast.Call _ -> false

(* --- per-function analysis --- *)

type usage = { mutable reads : int; mutable writes : int }

let lint_func out (f : Ast.func) =
  let func = f.fname in
  let usage = Hashtbl.create 16 in
  let slot name =
    match Hashtbl.find_opt usage name with
    | Some u -> u
    | None ->
      let u = { reads = 0; writes = 0 } in
      Hashtbl.add usage name u;
      u
  in
  List.iter (fun (p : Ast.param) -> ignore (slot p.pname)) f.params;
  List.iter (fun (d : Ast.decl) -> ignore (slot d.dname)) f.locals;
  let read name = (slot name).reads <- (slot name).reads + 1 in
  let write name = (slot name).writes <- (slot name).writes + 1 in
  let lvalue_write = function
    | Ast.Lvar name -> write name
    | Ast.Lindex (name, index) ->
      write name;
      iter_reads read index
  in
  (* Straight-line dead stores: a scalar assigned twice with no
     intervening read.  [pending] maps a variable to the location of its
     last unread store; any control flow (or the end of the list) drops
     all pending entries — the conservative choice, so the check never
     fires across joins. *)
  let rec walk_stmts ~loop_vars stmts =
    let pending : (string, Loc.t) Hashtbl.t = Hashtbl.create 8 in
    let read_clears name = Hashtbl.remove pending name in
    let reads_of_expr e = iter_reads (fun n -> read n; read_clears n) e in
    let unreachable_reported = ref false in
    let returned = ref false in
    List.iter
      (fun (stmt : Ast.stmt) ->
        if !returned && not !unreachable_reported then begin
          unreachable_reported := true;
          warn out ~func ~code:"W004" ~loc:stmt.sloc
            "unreachable statement (a preceding statement always returns)"
        end;
        if Semcheck.always_returns [ stmt ] then returned := true;
        match stmt.s with
        | Ast.Assign (lv, value) ->
          reads_of_expr value;
          (match lv with
          | Ast.Lvar name ->
            if List.mem name loop_vars then
              warn out ~func ~code:"W005" ~loc:stmt.sloc
                ("assignment to enclosing for-loop variable '" ^ name ^ "'");
            (match Hashtbl.find_opt pending name with
            | Some first ->
              warn out ~func ~code:"W003" ~loc:first
                ("dead store: '" ^ name ^ "' is overwritten at "
                ^ Loc.to_string stmt.sloc ^ " before being read")
            | None -> ());
            Hashtbl.replace pending name stmt.sloc
          | Ast.Lindex (name, index) ->
            reads_of_expr index;
            read_clears name (* array cells are not tracked individually *));
          lvalue_write lv
        | Ast.If (cond, then_branch, else_branch) ->
          reads_of_expr cond;
          if is_constant cond then
            warn out ~func ~code:"W006" ~loc:cond.eloc "'if' condition is constant";
          Hashtbl.reset pending;
          walk_stmts ~loop_vars then_branch;
          walk_stmts ~loop_vars else_branch
        | Ast.While (cond, body) ->
          reads_of_expr cond;
          if is_constant cond then
            warn out ~func ~code:"W006" ~loc:cond.eloc "'while' condition is constant";
          Hashtbl.reset pending;
          walk_stmts ~loop_vars body
        | Ast.For (var, lo, hi, body) ->
          reads_of_expr lo;
          reads_of_expr hi;
          (* The loop owns its variable: it both writes and reads it. *)
          write var;
          read var;
          Hashtbl.reset pending;
          walk_stmts ~loop_vars:(var :: loop_vars) body
        | Ast.Send (_, value) -> reads_of_expr value
        | Ast.Receive (_, target) ->
          (match target with
          | Ast.Lvar name ->
            if List.mem name loop_vars then
              warn out ~func ~code:"W005" ~loc:stmt.sloc
                ("receive into enclosing for-loop variable '" ^ name ^ "'");
            Hashtbl.replace pending name stmt.sloc
          | Ast.Lindex (name, index) ->
            reads_of_expr index;
            read_clears name);
          lvalue_write target
        | Ast.Return None -> returned := true
        | Ast.Return (Some value) ->
          reads_of_expr value;
          returned := true
        | Ast.Call_stmt (_, args) ->
          List.iter reads_of_expr args;
          Hashtbl.reset pending)
      stmts
  in
  walk_stmts ~loop_vars:[] f.body;
  (* Whole-function usage. *)
  List.iter
    (fun (p : Ast.param) ->
      let u = slot p.pname in
      if u.reads = 0 then
        warn out ~func ~code:"W002" ~loc:p.ploc
          ("unused parameter '" ^ p.pname ^ "'"))
    f.params;
  List.iter
    (fun (d : Ast.decl) ->
      let u = slot d.dname in
      if u.reads = 0 && u.writes = 0 then
        warn out ~func ~code:"W001" ~loc:d.dloc
          ("unused variable '" ^ d.dname ^ "'")
      else if u.reads = 0 then
        warn out ~func ~code:"W003" ~loc:d.dloc
          ("variable '" ^ d.dname ^ "' is assigned but never read"))
    f.locals

(* --- section-level analysis --- *)

(* The first function of a section is its entry point by convention
   (any function can be invoked from the host, but the download module
   needs at least the first one); helpers beyond it should be reachable
   from some other function of the section. *)
let lint_section out (sec : Ast.section) =
  List.iter (lint_func out) sec.funcs;
  let called = Hashtbl.create 16 in
  List.iter
    (fun (f : Ast.func) ->
      Ast.iter_stmts
        (function Ast.Call name -> Hashtbl.replace called name () | _ -> ())
        f.body)
    sec.funcs;
  match sec.funcs with
  | [] -> ()
  | _entry :: rest ->
    List.iter
      (fun (f : Ast.func) ->
        if not (Hashtbl.mem called f.fname) then
          warn out ~func:f.fname ~code:"W007" ~loc:f.floc
            (Printf.sprintf
               "function '%s' is never called from section '%s' (and is not its entry function)"
               f.fname sec.sname))
      rest

(* Lint a whole module; warnings in file order. *)
let lint_module (m : Ast.modul) : Diag.t list =
  let acc = ref [] in
  let out d = acc := d :: !acc in
  List.iter (lint_section out) m.sections;
  Diag.sort !acc

(* Coupling warnings (W008/W009).  The per-function effect data comes
   from the interprocedural analyzer, which sits above this library;
   the linter only owns the judgment calls — what counts as a coupling
   worth warning about — so every warning of the compiler is still
   born here. *)

type coupling = {
  c_func : string;
  c_loc : Loc.t;
  c_greads : string list;
  c_gwrites : string list;
  c_sends : Ast.channel list;
  c_recvs : Ast.channel list;
}

let coupling_warnings ~section ~cells ?(disjoint = []) (cs : coupling list) :
    Diag.t list =
  let acc = ref [] in
  let out d = acc := d :: !acc in
  let note ?func ~code ~loc message =
    out (Diag.make ?func ~code ~severity:Diag.Note ~loc message)
  in
  (* W008: a write to a section global that a sibling also touches is
     almost certainly meant as shared state, which the localized
     semantics (fresh copy per activation) does not provide. *)
  let globals = Hashtbl.create 8 in
  let touch g kind c =
    let reads, writes = try Hashtbl.find globals g with Not_found -> ([], []) in
    let entry = (c.c_func, c.c_loc) in
    Hashtbl.replace globals g
      (match kind with
      | `Read -> (entry :: reads, writes)
      | `Write -> (reads, entry :: writes))
  in
  List.iter
    (fun c ->
      List.iter (fun g -> touch g `Read c) c.c_greads;
      List.iter (fun g -> touch g `Write c) c.c_gwrites)
    cs;
  let names ps = List.sort_uniq String.compare (List.map fst ps) in
  Hashtbl.fold (fun g (reads, writes) keys -> (g, reads, writes) :: keys)
    globals []
  |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b)
  |> List.iter (fun (g, reads, writes) ->
         match List.rev writes with
         | [] -> ()
         | (wf, wloc) :: _ ->
           let others =
             List.filter (( <> ) wf) (names (reads @ writes))
           in
           if others <> [] then
             if List.mem g disjoint then
               (* The analyzer's region domain proved every
                  write/access pair element-disjoint: the siblings
                  partition the global rather than sharing it, so the
                  "unobserved write" warning would be a false positive.
                  Keep a note so the coupling stays visible. *)
               note ~func:wf ~code:"W008" ~loc:wloc
                 (Printf.sprintf
                    "global '%s' is written by '%s' and touched by \
                     sibling function%s %s of section '%s', but all \
                     accesses are element-disjoint (each function owns \
                     its own slice)"
                    g wf
                    (if List.length others > 1 then "s" else "")
                    (String.concat ", "
                       (List.map (Printf.sprintf "'%s'") others))
                    section)
             else
               warn out ~func:wf ~code:"W008" ~loc:wloc
                 (Printf.sprintf
                    "global '%s' is written by '%s' but every activation \
                     starts from a fresh copy; sibling function%s %s of \
                     section '%s' never observe%s the write"
                    g wf
                    (if List.length others > 1 then "s" else "")
                    (String.concat ", "
                       (List.map (Printf.sprintf "'%s'") others))
                    section
                    (if List.length others > 1 then "" else "s")));
  (* W009: with more than one cell only the boundary cell of a channel
     reaches the host, so a channel that is sent on but never received
     within the section silently drops every inner cell's values. *)
  if cells > 1 then
    List.iter
      (fun chan ->
        let sends =
          List.filter (fun c -> List.mem chan c.c_sends) cs
        in
        let recvs =
          List.exists (fun c -> List.mem chan c.c_recvs) cs
        in
        match (sends, recvs) with
        | first :: _, false ->
          warn out ~func:first.c_func ~code:"W009" ~loc:first.c_loc
            (Printf.sprintf
               "section '%s' sends on %s but no function receives it; \
                with %d cells only the boundary cell's sends reach the \
                host and inner-cell values are dropped"
               section
               (Ast.channel_to_string chan)
               cells)
        | _ -> ())
      [ Ast.Chan_x; Ast.Chan_y ];
  Diag.sort !acc
