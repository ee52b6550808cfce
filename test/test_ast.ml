(* W2.Ast's occurrence walk, renaming and localized-global set against
   the hand-written walkers they replaced (ast_oracle.ml), through each
   consumer: Depan's direct effects, Inline's leaf and free-variable
   rules and its renaming, Modan.inline_project, Lint's W007 call sets
   and expression reads, and the globals Lower localizes.

   The generator covers every expr, lvalue and stmt constructor, user
   and builtin call names, declared and undeclared variables.  It need
   not produce well-typed programs: every walker here is syntactic. *)

module Ast = W2.Ast
module O = Ast_oracle

let ex e = { Ast.e; eloc = W2.Loc.dummy }
let st s = { Ast.s; sloc = W2.Loc.dummy }

let params =
  [ { Ast.pname = "p0"; pty = Ast.Tint; ploc = W2.Loc.dummy };
    { Ast.pname = "p1"; pty = Ast.Tfloat; ploc = W2.Loc.dummy } ]

let decl dname dty = { Ast.dname; dty; dloc = W2.Loc.dummy }
let locals = [ decl "l0" Ast.Tint; decl "l1" Ast.Tfloat ]

let globals =
  [ decl "g0" Ast.Tint; decl "g1" Ast.Tfloat;
    decl "g2" (Ast.Tarray (8, Ast.Tfloat)); decl "g3" (Ast.Tarray (4, Ast.Tint)) ]

let bound_names = [ "p0"; "p1"; "l0"; "l1" ]
let all_names = bound_names @ [ "g0"; "g1"; "g2"; "g3"; "u0" ]
let builtin_names = [ "sqrt"; "min"; "float"; "iabs" ]

(* --- generators --- *)

let gen_expr ~vars ~calls =
  QCheck.Gen.(
    fix (fun self d ->
        let leaf =
          oneof
            [ map (fun i -> ex (Ast.Int_lit i)) (int_bound 9);
              map (fun i -> ex (Ast.Float_lit (float_of_int i /. 2.0))) (int_bound 9);
              map (fun b -> ex (Ast.Bool_lit b)) bool;
              map (fun v -> ex (Ast.Var v)) (oneofl vars) ]
        in
        if d = 0 then leaf
        else
          frequency
            [ (3, leaf);
              (1, map2 (fun v i -> ex (Ast.Index (v, i))) (oneofl vars) (self (d - 1)));
              (1, map2 (fun op a -> ex (Ast.Unary (op, a))) (oneofl [ Ast.Neg; Ast.Not ]) (self (d - 1)));
              ( 2,
                map3
                  (fun op a b -> ex (Ast.Binary (op, a, b)))
                  (oneofl [ Ast.Add; Ast.Mul; Ast.Lt; Ast.And; Ast.Or ])
                  (self (d - 1)) (self (d - 1)) );
              ( 1,
                map2
                  (fun f args -> ex (Ast.Call (f, args)))
                  (oneofl calls)
                  (list_size (int_bound 2) (self (d - 1))) ) ]))

(* [loop_vars] are the names a for loop may count with; [returns]
   allows return statements. *)
let gen_stmts ~vars ~loop_vars ~calls ~returns =
  QCheck.Gen.(
    let e = gen_expr ~vars ~calls 2 in
    let chan = oneofl [ Ast.Chan_x; Ast.Chan_y ] in
    let lvalue =
      oneof
        [ map (fun v -> Ast.Lvar v) (oneofl vars);
          map2 (fun v i -> Ast.Lindex (v, i)) (oneofl vars) e ]
    in
    fix (fun self d ->
        let simple =
          [ (3, map2 (fun lv x -> st (Ast.Assign (lv, x))) lvalue e);
            (1, map2 (fun c x -> st (Ast.Send (c, x))) chan e);
            (1, map2 (fun c lv -> st (Ast.Receive (c, lv))) chan lvalue);
            ( 1,
              map2
                (fun f args -> st (Ast.Call_stmt (f, args)))
                (oneofl calls)
                (list_size (int_bound 2) e) ) ]
          @ if returns then [ (1, map (fun x -> st (Ast.Return x)) (opt e)) ] else []
        in
        let compound =
          if d = 0 then []
          else
            [ (1, map3 (fun c t f -> st (Ast.If (c, t, f))) e (self (d - 1)) (self (d - 1)));
              (1, map2 (fun c b -> st (Ast.While (c, b))) e (self (d - 1)));
              ( 1,
                map3
                  (fun (v, lo) hi b -> st (Ast.For (v, lo, hi, b)))
                  (pair (oneofl loop_vars) e) e (self (d - 1)) ) ]
        in
        list_size (int_bound 4) (frequency (simple @ compound))))

let func fname body =
  { Ast.fname; params; ret = Some Ast.Tint; locals; body; floc = W2.Loc.dummy }

let gen_func ?(vars = all_names) ?(loop_vars = all_names) ~calls ~returns fname =
  QCheck.Gen.map (func fname) (gen_stmts ~vars ~loop_vars ~calls ~returns 2)

(* One module of one section: one to four functions named
   [prefix]f0.., calling each other, builtins and an unknown name, over
   a shuffled subset of the globals. *)
let gen_module ?(loop_vars = all_names) mname =
  QCheck.Gen.(
    int_range 1 4 >>= fun n ->
    let names = List.init n (fun i -> Printf.sprintf "%s_f%d" mname i) in
    let calls = names @ builtin_names @ [ "ext" ] in
    flatten_l (List.map (gen_func ~loop_vars ~calls ~returns:true) names) >>= fun funcs ->
    shuffle_l globals >>= fun gs ->
    list_size (return (List.length gs)) bool >|= fun keep ->
    let sec_globals = List.filteri (fun i _ -> List.nth keep i) gs in
    {
      Ast.mname;
      imports = [];
      exports = [];
      sections =
        [ { Ast.sname = "s_" ^ mname; cells = 1; globals = sec_globals; funcs;
            secloc = W2.Loc.dummy } ];
      mloc = W2.Loc.dummy;
    })

let section_of (m : Ast.modul) = List.hd m.Ast.sections
let arb_module = QCheck.make ~print:W2.Pretty.module_to_string (gen_module "m")

let arb_func ?vars ?loop_vars ~calls ~returns () =
  QCheck.make ~print:W2.Pretty.func_to_string
    (gen_func ?vars ?loop_vars ~calls ~returns "f")

let count = 300

(* --- Depan --- *)

let prop_depan_direct =
  QCheck.Test.make ~count ~name:"Depan fi_direct = direct_effects oracle" arb_module
    (fun m ->
      let sec = section_of m in
      let si = List.hd (Analysis.Depan.analyze ~absint:false m).Analysis.Depan.dp_sections in
      let gnames =
        O.SS.of_list (List.map (fun (d : Ast.decl) -> d.Ast.dname) sec.Ast.globals)
      in
      List.for_all2
        (fun (fi : Analysis.Depan.func_info) f ->
          fi.Analysis.Depan.fi_direct = O.direct_effects ~globals:gnames f)
        (Array.to_list si.Analysis.Depan.si_funcs)
        sec.Ast.funcs)

(* --- Inline --- *)

(* Leaves (builtin calls only) without returns: [inlinable] is exactly
   the free-variable test. *)
let prop_free_vars =
  QCheck.Test.make ~count ~name:"Inline free variables = oracle"
    (arb_func ~calls:builtin_names ~returns:false ())
    (fun f ->
      W2.Inline.inlinable ~max_lines:max_int f = not (O.has_free_vars f))

(* A builtin call statement read as a builtin call expression: the same
   calls in the same places, so the old statement rule, minus its
   builtin exception, applies. *)
let rec builtin_stmts_as_exprs stmts =
  List.map
    (fun (s : Ast.stmt) ->
      match s.Ast.s with
      | Ast.Call_stmt (n, args) when Ast.is_builtin n ->
        st (Ast.Send (Ast.Chan_x, ex (Ast.Call (n, args))))
      | Ast.If (c, t, e) -> st (Ast.If (c, builtin_stmts_as_exprs t, builtin_stmts_as_exprs e))
      | Ast.While (c, b) -> st (Ast.While (c, builtin_stmts_as_exprs b))
      | Ast.For (v, lo, hi, b) -> st (Ast.For (v, lo, hi, builtin_stmts_as_exprs b))
      | _ -> s)
    stmts

(* Closed bodies without returns: [inlinable] is exactly the call
   test, builtins filtered in both positions. *)
let prop_leaf_calls =
  QCheck.Test.make ~count ~name:"Inline leaf rule = oracle, builtin statements admitted"
    (arb_func ~vars:bound_names ~loop_vars:bound_names
       ~calls:([ "f"; "g"; "ext" ] @ builtin_names) ~returns:false ())
    (fun f ->
      W2.Inline.inlinable ~max_lines:max_int f
      = not (O.has_calls_stmts (builtin_stmts_as_exprs f.Ast.body)))

let gen_rename_map =
  QCheck.Gen.(
    list_size (int_bound 6)
      (pair (oneofl all_names) (oneofl (all_names @ [ "r0"; "r1"; "__inl0_p0" ]))))

let prop_rename =
  QCheck.Test.make ~count ~name:"Ast.rename = Inline rename oracle"
    (QCheck.make
       ~print:(fun (f, map) ->
         W2.Pretty.func_to_string f ^ "\n"
         ^ String.concat ", " (List.map (fun (a, b) -> a ^ "->" ^ b) map))
       QCheck.Gen.(
         pair (gen_func ~calls:([ "f" ] @ builtin_names) ~returns:true "f") gen_rename_map))
    (fun (f, map) ->
      let table = Hashtbl.create 8 in
      List.iter (fun (a, b) -> Hashtbl.replace table a b) map;
      Ast.rename (fun v -> Option.value ~default:v (Hashtbl.find_opt table v)) f.Ast.body
      = List.map (O.rename_stmt table) f.Ast.body)

(* --- Modan --- *)

(* For variables drawn from the declared locals, the only kind the old
   renaming handled (see the pinned global-loop-variable case). *)
let prop_inline_project =
  QCheck.Test.make ~count:100 ~name:"Modan.inline_project = renaming oracle"
    (QCheck.make
       ~print:(fun ms -> String.concat "\n" (List.map W2.Pretty.module_to_string ms))
       QCheck.Gen.(
         flatten_l
           (List.map (gen_module ~loop_vars:bound_names) [ "ma"; "mb"; "mc" ])))
    (fun mods ->
      let merged = section_of (Analysis.Modan.inline_project mods) in
      let expected =
        List.concat_map
          (fun (m : Ast.modul) ->
            let sec = section_of m in
            let rename = Hashtbl.create 8 in
            List.iter
              (fun (d : Ast.decl) ->
                Hashtbl.replace rename d.Ast.dname (m.Ast.mname ^ "__" ^ d.Ast.dname))
              sec.Ast.globals;
            List.map (O.project_rename_func rename) sec.Ast.funcs)
          mods
      in
      merged.Ast.funcs = expected)

(* --- Lint --- *)

let prop_w007 =
  QCheck.Test.make ~count ~name:"Lint W007 = call-set oracle" arb_module (fun m ->
      let sec = section_of m in
      let called = Hashtbl.create 8 in
      List.iter
        (fun (f : Ast.func) ->
          List.iter (O.stmt_calls (fun n -> Hashtbl.replace called n ())) f.Ast.body)
        sec.Ast.funcs;
      let expected =
        List.tl sec.Ast.funcs
        |> List.filter (fun (f : Ast.func) -> not (Hashtbl.mem called f.Ast.fname))
        |> List.map (fun (f : Ast.func) -> f.Ast.fname)
      in
      let got =
        W2.Lint.lint_module m
        |> List.filter_map (fun (d : W2.Diag.t) ->
               if d.W2.Diag.d_code = "W007" then d.W2.Diag.d_func else None)
      in
      List.sort compare got = List.sort compare expected)

let prop_expr_reads =
  QCheck.Test.make ~count ~name:"expression reads = Lint oracle, in order"
    (QCheck.make ~print:W2.Pretty.expr_to_string
       (gen_expr ~vars:all_names ~calls:([ "f" ] @ builtin_names) 4))
    (fun e ->
      let walk = ref [] and oracle = ref [] in
      Ast.iter_expr (function Ast.Read n -> walk := n :: !walk | _ -> ()) e;
      O.expr_reads (fun n -> oracle := n :: !oracle) e;
      !walk = !oracle)

(* --- Lower --- *)

let prop_localized =
  QCheck.Test.make ~count ~name:"localized globals = Lower oracle, in order" arb_module
    (fun m ->
      let sec = section_of m in
      List.for_all
        (fun f ->
          Ast.localized_globals sec.Ast.globals f = O.localized_globals sec.Ast.globals f)
        sec.Ast.funcs)

(* --- pinned cases --- *)

(* The one rule the shared walk changes: a builtin call statement no
   longer blocks inlining (the expression position always allowed it). *)
let test_builtin_statement_inlines () =
  let m =
    W2.Parser.module_of_string
      {|module pin
  section s cells 1
  function main(x: float) : float
  begin
    return helper(x) + 1.0;
  end
  function helper(y: float) : float
  begin
    sqrt(y);
    return y * 2.0;
  end
  end
end|}
  in
  W2.Semcheck.check_module_exn m;
  let helper = Option.get (Ast.find_function m ~section:"s" ~name:"helper") in
  Alcotest.(check bool) "builtin statement keeps a leaf inlinable" true
    (W2.Inline.inlinable ~max_lines:W2.Inline.default_max_lines helper);
  let inlined, stats = W2.Inline.expand_module m in
  Alcotest.(check int) "the call site expands" 1 stats.W2.Inline.inlined;
  W2.Semcheck.check_module_exn inlined;
  let run m =
    Option.get
      (W2.Interp.run_function (section_of m) ~name:"main"
         ~args:[ W2.Interp.Vfloat 4.0 ])
  in
  Alcotest.check Tutil.value_testable "same result" (run m) (run inlined)

(* A global counting a for loop is renamed with the global, so the
   merged program still declares its loop variable. *)
let test_global_loop_variable () =
  let m =
    W2.Parser.module_of_string
      {|module ml
  section s cells 1
  var k : int;
  function f(n: int) : int
  begin
    for k := 1 to n do
    end;
    return k;
  end
  end
end|}
  in
  W2.Semcheck.check_module_exn m;
  let merged = Analysis.Modan.inline_project [ m ] in
  Alcotest.(check (list string)) "merged program checks" []
    (List.map W2.Semcheck.error_to_string (W2.Semcheck.check_module merged))

let suites =
  [
    ( "ast.oracles",
      [ Alcotest.test_case "builtin statement inlines" `Quick
          test_builtin_statement_inlines;
        Alcotest.test_case "global loop variable renamed" `Quick
          test_global_loop_variable ]
      @ List.map QCheck_alcotest.to_alcotest
          [ prop_depan_direct; prop_free_vars; prop_leaf_calls; prop_rename;
            prop_inline_project; prop_w007; prop_expr_reads; prop_localized ] );
  ]
