(* Tests for the W2 frontend: lexer, parser, pretty-printer round trips,
   semantic checker, reference interpreter and program generator. *)

open W2

let sample_module =
  {|
module demo
  section s1 cells 2
  function inc(x: int) : int
  begin
    return x + 1;
  end
  function acc(n: int) : float
    var i : int;
    var total : float;
    var buf : array[4] of float;
  begin
    total := 0.0;
    buf[0] := 1.5;
    for i := 0 to n do
      total := total + float(inc(i)) + buf[0];
    end;
    return total;
  end
  end
end
|}

let parse_ok src = Parser.module_of_string src

(* --- lexer --- *)

let test_lex_simple () =
  let toks = List.map fst (Lexer.tokenize "x := 1 + 2.5; -- comment\n y") in
  Alcotest.(check int) "token count" 8 (List.length toks);
  (match toks with
  | [ IDENT "x"; ASSIGN; INT 1; PLUS; FLOAT f; SEMI; IDENT "y"; EOF ] ->
    Alcotest.(check (float 0.0)) "float lit" 2.5 f
  | _ -> Alcotest.fail "unexpected token stream")

let test_lex_operators () =
  let toks = List.map fst (Lexer.tokenize "<= >= <> < > = : :=") in
  Alcotest.(check bool) "ops" true
    (toks = Token.[ LE; GE; NE; LT; GT; EQ; COLON; ASSIGN; EOF ])

let test_lex_keywords () =
  let toks = List.map fst (Lexer.tokenize "module MODULE Module") in
  Alcotest.(check bool) "case-insensitive keywords" true
    (toks = Token.[ MODULE; MODULE; MODULE; EOF ])

let test_lex_positions () =
  let toks = Lexer.tokenize "a\n  b" in
  match toks with
  | [ (_, la); (_, lb); _ ] ->
    Alcotest.(check int) "line a" 1 la.Loc.line;
    Alcotest.(check int) "line b" 2 lb.Loc.line;
    Alcotest.(check int) "col b" 3 lb.Loc.col
  | _ -> Alcotest.fail "expected three tokens"

let test_lex_error () =
  match Lexer.tokenize "a ? b" with
  | exception Lexer.Error (_, loc) -> Alcotest.(check int) "col" 3 loc.Loc.col
  | _ -> Alcotest.fail "expected a lexer error"

let test_lex_exponent () =
  match List.map fst (Lexer.tokenize "1e3 2.5E-2") with
  | [ FLOAT a; FLOAT b; EOF ] ->
    Alcotest.(check (float 1e-12)) "1e3" 1000.0 a;
    Alcotest.(check (float 1e-12)) "2.5e-2" 0.025 b
  | _ -> Alcotest.fail "expected two float literals"

(* --- parser --- *)

let test_parse_module () =
  let m = parse_ok sample_module in
  Alcotest.(check string) "name" "demo" m.Ast.mname;
  Alcotest.(check int) "sections" 1 (List.length m.Ast.sections);
  Alcotest.(check int) "functions" 2 Ast.(func_count m)

let test_parse_precedence () =
  let e = Parser.expr_of_string "1 + 2 * 3" in
  match e.Ast.e with
  | Ast.Binary (Ast.Add, _, { e = Ast.Binary (Ast.Mul, _, _); _ }) -> ()
  | _ -> Alcotest.fail "expected + at root with * below"

let test_parse_assoc () =
  let e = Parser.expr_of_string "1 - 2 - 3" in
  match e.Ast.e with
  | Ast.Binary (Ast.Sub, { e = Ast.Binary (Ast.Sub, _, _); _ }, _) -> ()
  | _ -> Alcotest.fail "subtraction must associate left"

let test_parse_bool_prec () =
  let e = Parser.expr_of_string "true or false and false" in
  match e.Ast.e with
  | Ast.Binary (Ast.Or, _, { e = Ast.Binary (Ast.And, _, _); _ }) -> ()
  | _ -> Alcotest.fail "'and' must bind tighter than 'or'"

let test_parse_unary () =
  let e = Parser.expr_of_string "-x * y" in
  match e.Ast.e with
  | Ast.Binary (Ast.Mul, { e = Ast.Unary (Ast.Neg, _); _ }, _) -> ()
  | _ -> Alcotest.fail "unary minus must bind tighter than *"

let test_parse_error_reports_location () =
  match Parser.module_of_string "module m section s cells 1 end end" with
  | exception Parser.Error (msg, _) ->
    Alcotest.(check bool) "mentions function" true (Tutil.contains msg "function")
  | _ -> Alcotest.fail "expected parse error for empty section"

let test_parse_dangling_else () =
  let src =
    {|
function f(x: int) : int
begin
  if x > 0 then
    if x > 1 then
      return 2;
    else
      return 1;
    end;
  end;
  return 0;
end
|}
  in
  let f = Parser.function_of_string src in
  match (List.hd f.Ast.body).Ast.s with
  | Ast.If (_, [ { s = Ast.If (_, _, [ _ ]); _ } ], []) -> ()
  | _ -> Alcotest.fail "else must attach to the inner if"

let test_parse_channels () =
  let src =
    {|
function f()
  var x : float;
begin
  receive(X, x);
  send(Y, x * 2.0);
end
|}
  in
  let f = Parser.function_of_string src in
  match List.map (fun (s : Ast.stmt) -> s.Ast.s) f.Ast.body with
  | [ Ast.Receive (Ast.Chan_x, _); Ast.Send (Ast.Chan_y, _) ] -> ()
  | _ -> Alcotest.fail "channel statements parsed wrongly"

(* --- pretty-printer round trip --- *)

let strip_locs_module m = Pretty.module_to_string m

let test_roundtrip_sample () =
  let m = parse_ok sample_module in
  let printed = Pretty.module_to_string m in
  let reparsed = parse_ok printed in
  Alcotest.(check string) "print . parse . print is stable" printed
    (strip_locs_module reparsed)

let prop_roundtrip_random =
  QCheck.Test.make ~name:"pretty/parse round trip on random functions"
    ~count:150
    QCheck.(pair small_nat small_nat)
    (fun (seed, size) ->
      let f = Gen.random_function ~seed ~size () in
      let printed = Pretty.func_to_string f in
      let reparsed = Parser.function_of_string printed in
      Pretty.func_to_string reparsed = printed)

(* Float literals render as "%.17g" renders them ("%.1f" for integral
   values), whichever path the printer takes: short dyadic fractions
   such as 0.375, long ones, tiny and huge values. *)
let prop_float_literal_rendering =
  let gen =
    QCheck.Gen.(
      oneof
        [
          map2 (fun m k -> Float.ldexp (Float.of_int m) (-k)) (int_range 1 (1 lsl 40)) (int_range 1 24);
          map (fun m -> Float.of_int m /. 1024.) (int_range 1 1_000_000);
          map (fun bits -> Float.abs (Int64.float_of_bits bits)) ui64;
          float_range 0. 1e-3;
        ])
  in
  QCheck.Test.make ~name:"float literals render as %.17g" ~count:2000
    (QCheck.make ~print:(Printf.sprintf "%h") gen) (fun f ->
      QCheck.assume (Float.is_finite f);
      let expected =
        if Float.is_integer f && f < 1e16 then Printf.sprintf "%.1f" f
        else
          let s = Printf.sprintf "%.17g" f in
          if String.contains s '.' || String.contains s 'e' then s else s ^ ".0"
      in
      Pretty.expr_to_string { Ast.e = Ast.Float_lit f; eloc = Loc.dummy } = expected)

(* --- semantic checker --- *)

let check_src src = Semcheck.check_module (parse_ok src)

let expect_error src fragment =
  let errors = check_src src in
  let found =
    List.exists (fun e -> Tutil.contains (Semcheck.error_to_string e) fragment) errors
  in
  if not found then
    Alcotest.failf "expected an error mentioning %S, got: %s" fragment
      (String.concat "; " (List.map Semcheck.error_to_string errors))

let wrap_func body_decls =
  Printf.sprintf
    "module m section s cells 1 function f(x: int) : int %s end end" body_decls

let test_sem_ok () =
  Alcotest.(check int) "no errors" 0 (List.length (check_src sample_module))

let test_sem_undeclared () =
  expect_error (wrap_func "begin return y; end") "undeclared variable 'y'"

let test_sem_type_mismatch () =
  expect_error
    (wrap_func "var a : float; begin a := 1; return x; end")
    "right-hand side of assignment"

let test_sem_call_arity () =
  expect_error
    (wrap_func "begin return f(1, 2); end")
    "expects 1 argument(s) but got 2"

let test_sem_return_check () =
  expect_error
    (wrap_func "begin if x > 0 then return 1; end; end")
    "does not return a value on every path"

let test_sem_missing_function () =
  expect_error (wrap_func "begin return g(); end") "undefined function 'g'"

let test_sem_bad_index () =
  expect_error
    (wrap_func "var a : array[4] of int; begin return a[7]; end")
    "out of bounds"

let test_sem_duplicate_var () =
  expect_error
    (wrap_func "var x : int; begin return x; end")
    "duplicate declaration"

let test_sem_for_var_type () =
  expect_error
    (wrap_func
       "var q : float; begin for q := 0 to 3 do x := x + 1; end; return x; end")
    "must be int"

let test_sem_cross_function_type () =
  (* Return-type/use mismatch across functions of the same section: the
     check that forces phase 1 to see the whole section program. *)
  expect_error
    {|
module m
  section s cells 1
  function g() : float
  begin
    return 1.0;
  end
  function f() : int
  begin
    return g();
  end
  end
end
|}
    "returned value"

let test_sem_void_in_expr () =
  expect_error
    {|
module m
  section s cells 1
  function g()
  begin
    return;
  end
  function f() : int
  begin
    return g();
  end
  end
end
|}
    "returns no value"

let prop_random_functions_check =
  QCheck.Test.make ~name:"generated random functions always type-check"
    ~count:200
    QCheck.(pair small_nat small_nat)
    (fun (seed, size) ->
      let f = Gen.random_function ~seed ~size () in
      let m = Gen.module_of_function f in
      Semcheck.check_module m = [])

(* --- interpreter --- *)

let run_src src ~name ~args =
  let m = parse_ok src in
  Semcheck.check_module_exn m;
  Interp.run_function (List.hd m.Ast.sections) ~name ~args

let test_interp_basic () =
  let result = run_src sample_module ~name:"acc" ~args:[ Interp.Vint 3 ] in
  (* total = sum_{i=0..3} (i+1) + 1.5 = 10 + 6 = 16 *)
  Alcotest.check Tutil.value_testable "acc(3)" (Interp.Vfloat 16.0)
    (Option.get result)

let test_interp_call_chain () =
  let result = run_src sample_module ~name:"inc" ~args:[ Interp.Vint 41 ] in
  Alcotest.check Tutil.value_testable "inc(41)" (Interp.Vint 42) (Option.get result)

let test_interp_channels () =
  let src =
    {|
module m
  section s cells 1
  function relay(n: int) : int
    var i : int;
    var x : float;
  begin
    for i := 1 to n do
      receive(X, x);
      send(Y, x * 2.0);
    end;
    return n;
  end
  end
end
|}
  in
  let m = parse_ok src in
  Semcheck.check_module_exn m;
  let channels, outputs =
    Interp.queue_channels
      ~input_x:[ Interp.Vfloat 1.0; Interp.Vfloat 2.5 ]
      ~input_y:[]
  in
  let result =
    Interp.run_function ~channels (List.hd m.Ast.sections) ~name:"relay"
      ~args:[ Interp.Vint 2 ]
  in
  Alcotest.check Tutil.value_testable "returns n" (Interp.Vint 2) (Option.get result);
  let _, out_y = outputs () in
  Alcotest.(check int) "two outputs" 2 (List.length out_y);
  Alcotest.check Tutil.value_testable "doubled" (Interp.Vfloat 5.0)
    (List.nth out_y 1)

let test_interp_division_by_zero () =
  match run_src (wrap_func "begin return x / 0; end") ~name:"f" ~args:[ Interp.Vint 1 ] with
  | exception Interp.Runtime_error (msg, _) ->
    Alcotest.(check bool) "message" true (Tutil.contains msg "division by zero")
  | _ -> Alcotest.fail "expected division-by-zero error"

let test_interp_fuel () =
  let src =
    wrap_func
      "var i : int; begin i := 0; while i < 100000 do i := i + 1; end; return i; end"
  in
  let m = parse_ok src in
  match
    Interp.run_function ~fuel:100 (List.hd m.Ast.sections) ~name:"f"
      ~args:[ Interp.Vint 0 ]
  with
  | exception Interp.Out_of_fuel -> ()
  | _ -> Alcotest.fail "expected fuel exhaustion"

let test_interp_while () =
  let src =
    wrap_func
      "var i : int; var s : int; begin s := 0; i := x; while i > 0 do s := s + i; i := i - 1; end; return s; end"
  in
  let result = run_src src ~name:"f" ~args:[ Interp.Vint 4 ] in
  Alcotest.check Tutil.value_testable "sum 4..1" (Interp.Vint 10) (Option.get result)

let prop_interp_deterministic =
  QCheck.Test.make ~name:"interpreter is deterministic on random programs"
    ~count:100
    QCheck.(triple small_nat small_nat small_nat)
    (fun (seed, size, input) ->
      let f = Gen.random_function ~seed ~size () in
      let m = Gen.module_of_function f in
      let sec = List.hd m.Ast.sections in
      let args = [ Interp.Vint (input mod 20); Interp.Vfloat 1.5 ] in
      let run () =
        try Some (Interp.run_function ~fuel:200_000 sec ~name:"prop_f" ~args)
        with Interp.Out_of_fuel | Interp.Runtime_error _ -> None
      in
      run () = run ())

(* --- generator --- *)

let test_gen_sizes () =
  List.iter
    (fun size ->
      let f = Gen.sized_function ~name:(Gen.size_name size) size in
      let loc = Pretty.func_loc f in
      Alcotest.(check int)
        (Printf.sprintf "LoC of %s" (Gen.size_name size))
        (Gen.size_lines size) loc)
    Gen.all_sizes

let test_gen_checks () =
  List.iter
    (fun size ->
      let f = Gen.sized_function ~name:(Gen.size_name size) size in
      let m = Gen.module_of_function f in
      match Semcheck.check_module m with
      | [] -> ()
      | errors ->
        Alcotest.failf "%s does not check: %s" (Gen.size_name size)
          (Semcheck.error_to_string (List.hd errors)))
    Gen.all_sizes

let test_gen_runs () =
  List.iter
    (fun size ->
      let f = Gen.sized_function ~name:(Gen.size_name size) size in
      let m = Gen.module_of_function f in
      let result =
        Interp.run_function ~fuel:5_000_000 (List.hd m.Ast.sections)
          ~name:f.Ast.fname
          ~args:[ Interp.Vint 7; Interp.Vint 3 ]
      in
      match result with
      | Some (Interp.Vfloat v) ->
        if Float.is_nan v || Float.is_nan (v *. 0.0) then
          Alcotest.failf "%s returned a non-finite float" (Gen.size_name size)
      | _ -> Alcotest.failf "%s did not return a float" (Gen.size_name size))
    Gen.all_sizes

let test_gen_deterministic () =
  let a = Gen.sized_function ~name:"f" Gen.Large in
  let b = Gen.sized_function ~name:"f" Gen.Large in
  Alcotest.(check string) "same source" (Pretty.func_to_string a)
    (Pretty.func_to_string b)

let test_gen_nesting_grows () =
  let small = Gen.sized_function ~name:"a" Gen.Small in
  let huge = Gen.sized_function ~name:"b" Gen.Huge in
  Alcotest.(check bool) "deeper nests for bigger functions" true
    (Ast.max_loop_nesting huge.Ast.body > Ast.max_loop_nesting small.Ast.body)

let test_gen_s_program () =
  let m = Gen.s_program ~size:Gen.Small ~count:4 () in
  Alcotest.(check int) "4 functions" 4 (Ast.func_count m);
  Alcotest.(check int) "1 section" 1 (List.length m.Ast.sections);
  Alcotest.(check int) "no check errors" 0
    (List.length (Semcheck.check_module m))

let test_gen_user_program () =
  let m = Gen.user_program () in
  Alcotest.(check int) "9 functions" 9 (Ast.func_count m);
  Alcotest.(check int) "3 sections" 3 (List.length m.Ast.sections);
  Alcotest.(check int) "no check errors" 0
    (List.length (Semcheck.check_module m));
  (* Each section holds one ~300-line function and two small ones. *)
  List.iter
    (fun (sec : Ast.section) ->
      let locs =
        List.map Pretty.func_loc sec.Ast.funcs |> List.sort compare |> List.rev
      in
      match locs with
      | big :: smalls ->
        Alcotest.(check int) "big is 300" 300 big;
        List.iter
          (fun l ->
            Alcotest.(check bool) "small in 5..45" true (l >= 4 && l <= 45))
          smalls
      | [] -> Alcotest.fail "empty section")
    m.Ast.sections

let test_function_of_lines_sweep () =
  List.iter
    (fun lines ->
      let f = Gen.function_of_lines ~name:"g" lines in
      let actual = Pretty.func_loc f in
      Alcotest.(check bool)
        (Printf.sprintf "%d lines requested, %d produced" lines actual)
        true
        (abs (actual - lines) <= 6))
    [ 5; 10; 20; 30; 50; 100; 200; 300; 400 ]

(* --- lint --- *)

let lint_codes src =
  List.map (fun d -> d.Diag.d_code) (Lint.lint_module (Parser.module_of_string src))

let wrap body =
  Printf.sprintf
    {|
module m
  section s cells 1
%s
  end
end
|}
    body

let test_lint_clean () =
  let codes =
    lint_codes
      (wrap
         {|
  function main(n: int)
    var i : int;
  begin
    for i := 1 to n do
      send(X, helper(i));
    end;
  end
  function helper(n: int) : int
  begin
    return n + 1;
  end
|})
  in
  Alcotest.(check (list string)) "no findings" [] codes

let test_lint_diags_sorted_and_promotable () =
  let ds =
    Lint.lint_module
      (Parser.module_of_string
         (wrap
            {|
  function f(x: int) : int
    var unused : int;
  begin
    return 1;
  end
|}))
  in
  Alcotest.(check bool) "several findings" true (List.length ds >= 2);
  Alcotest.(check bool) "warnings only" false (Diag.has_errors ds);
  Alcotest.(check bool) "-Werror promotes" true
    (Diag.has_errors (Diag.promote_warnings ds));
  let sorted = Diag.sort ds in
  Alcotest.(check bool) "stable under re-sort" true (Diag.sort sorted = sorted);
  List.iter (fun d -> Alcotest.(check bool) "renders" true
                        (String.length (Diag.to_string d) > 0)) ds

let suites =
  [
    ( "w2.lexer",
      [
        Alcotest.test_case "simple" `Quick test_lex_simple;
        Alcotest.test_case "operators" `Quick test_lex_operators;
        Alcotest.test_case "keywords" `Quick test_lex_keywords;
        Alcotest.test_case "positions" `Quick test_lex_positions;
        Alcotest.test_case "error" `Quick test_lex_error;
        Alcotest.test_case "exponents" `Quick test_lex_exponent;
      ] );
    ( "w2.parser",
      [
        Alcotest.test_case "module" `Quick test_parse_module;
        Alcotest.test_case "precedence" `Quick test_parse_precedence;
        Alcotest.test_case "associativity" `Quick test_parse_assoc;
        Alcotest.test_case "bool precedence" `Quick test_parse_bool_prec;
        Alcotest.test_case "unary" `Quick test_parse_unary;
        Alcotest.test_case "error location" `Quick test_parse_error_reports_location;
        Alcotest.test_case "dangling else" `Quick test_parse_dangling_else;
        Alcotest.test_case "channels" `Quick test_parse_channels;
      ] );
    ( "w2.pretty",
      [
        Alcotest.test_case "roundtrip sample" `Quick test_roundtrip_sample;
        QCheck_alcotest.to_alcotest prop_roundtrip_random;
        QCheck_alcotest.to_alcotest prop_float_literal_rendering;
      ] );
    ( "w2.semcheck",
      [
        Alcotest.test_case "accepts sample" `Quick test_sem_ok;
        Alcotest.test_case "undeclared" `Quick test_sem_undeclared;
        Alcotest.test_case "type mismatch" `Quick test_sem_type_mismatch;
        Alcotest.test_case "call arity" `Quick test_sem_call_arity;
        Alcotest.test_case "return paths" `Quick test_sem_return_check;
        Alcotest.test_case "missing function" `Quick test_sem_missing_function;
        Alcotest.test_case "bad index" `Quick test_sem_bad_index;
        Alcotest.test_case "duplicate var" `Quick test_sem_duplicate_var;
        Alcotest.test_case "for var type" `Quick test_sem_for_var_type;
        Alcotest.test_case "cross-function types" `Quick test_sem_cross_function_type;
        Alcotest.test_case "void in expression" `Quick test_sem_void_in_expr;
        QCheck_alcotest.to_alcotest prop_random_functions_check;
      ] );
    ( "w2.interp",
      [
        Alcotest.test_case "basic" `Quick test_interp_basic;
        Alcotest.test_case "call chain" `Quick test_interp_call_chain;
        Alcotest.test_case "channels" `Quick test_interp_channels;
        Alcotest.test_case "division by zero" `Quick test_interp_division_by_zero;
        Alcotest.test_case "fuel" `Quick test_interp_fuel;
        Alcotest.test_case "while" `Quick test_interp_while;
        QCheck_alcotest.to_alcotest prop_interp_deterministic;
      ] );
    ( "w2.lint",
      [
        (* per-code witnesses live in the fixture table (test_lintfix) *)
        Alcotest.test_case "clean program" `Quick test_lint_clean;
        Alcotest.test_case "diag plumbing" `Quick
          test_lint_diags_sorted_and_promotable;
      ] );
    ( "w2.gen",
      [
        Alcotest.test_case "paper sizes exact" `Quick test_gen_sizes;
        Alcotest.test_case "benchmarks type-check" `Quick test_gen_checks;
        Alcotest.test_case "benchmarks run" `Quick test_gen_runs;
        Alcotest.test_case "deterministic" `Quick test_gen_deterministic;
        Alcotest.test_case "nesting grows with size" `Quick test_gen_nesting_grows;
        Alcotest.test_case "s_program" `Quick test_gen_s_program;
        Alcotest.test_case "user program" `Quick test_gen_user_program;
        Alcotest.test_case "line sweep" `Quick test_function_of_lines_sweep;
      ] );
  ]
