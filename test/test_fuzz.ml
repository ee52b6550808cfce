(* Robustness fuzzing: the frontend and the object-file loader must
   reject arbitrary garbage with their declared exceptions — never a
   crash, never an unexpected exception. *)

open W2

let well_formed_rejection name f =
  QCheck.Test.make ~name ~count:300 QCheck.printable_string (fun s ->
      match f s with
      | _ -> true
      | exception Lexer.Error (_, loc) -> loc.Loc.line >= 1
      | exception Parser.Error (_, loc) -> loc.Loc.line >= 1)

let prop_lexer_total =
  well_formed_rejection "lexer is total (accepts or raises Lexer.Error)"
    (fun s -> ignore (Lexer.tokenize s))

let prop_parser_total =
  well_formed_rejection "parser is total on random strings" (fun s ->
      ignore (Parser.module_of_string s))

(* Mutate a valid source: the parser either accepts or raises its own
   error, and on acceptance the checker's diagnostics are printable. *)
let prop_parser_on_mutated_source =
  let base =
    Pretty.module_to_string
      (Gen.module_of_function (Gen.sized_function ~name:"m" Gen.Small))
  in
  QCheck.Test.make ~name:"parser survives random source mutations" ~count:300
    QCheck.(triple (int_range 0 (String.length base - 1)) (int_range 0 255) small_nat)
    (fun (pos, byte, extra) ->
      let b = Bytes.of_string base in
      Bytes.set b pos (Char.chr byte);
      (* occasionally also truncate *)
      let mutated =
        if extra mod 3 = 0 then Bytes.sub_string b 0 (max 1 (pos + 1))
        else Bytes.to_string b
      in
      match Parser.module_of_string mutated with
      | m ->
        List.iter
          (fun e -> ignore (Semcheck.error_to_string e))
          (Semcheck.check_module m);
        true
      | exception Parser.Error (msg, _) -> String.length msg > 0
      | exception Lexer.Error (msg, _) -> String.length msg > 0)

(* The object loader: random corruption of a valid module must either
   decode to *something* or raise Bad_object — nothing else. *)
let prop_loader_total =
  let image =
    let m = Gen.module_of_function (Gen.sized_function ~name:"obj" Gen.Small) in
    let sec = List.hd (Midend.Lower.lower_module m) in
    List.iter (fun f -> ignore (Midend.Opt.optimize f)) sec.Midend.Ir.funcs;
    Warp.Link.link ~section:"s" ~cells:1
      (List.map
         (fun f -> (Warp.Codegen.compile_function f).Warp.Codegen.mfunc)
         sec.Midend.Ir.funcs)
  in
  let encoded = Warp.Asm.encode image in
  QCheck.Test.make ~name:"object loader is total under corruption" ~count:300
    QCheck.(triple (int_range 0 (String.length encoded - 1)) (int_range 0 255) bool)
    (fun (pos, byte, truncate) ->
      let b = Bytes.of_string encoded in
      Bytes.set b pos (Char.chr byte);
      let corrupted =
        if truncate then Bytes.sub_string b 0 pos else Bytes.to_string b
      in
      match Warp.Asm.decode corrupted with
      | _ -> true
      | exception Warp.Asm.Bad_object _ -> true
      | exception _ -> false)

let prop_loader_random_bytes =
  QCheck.Test.make ~name:"object loader rejects random bytes" ~count:300
    QCheck.printable_string (fun s ->
      match Warp.Asm.decode s with
      | _ -> true (* astronomically unlikely, but not wrong *)
      | exception Warp.Asm.Bad_object _ -> true
      | exception _ -> false)

(* Optimizer-correctness oracle: any generated program that survives
   the frontend must still satisfy every IR invariant after the full
   -O3 pipeline, with the verifier re-run after each pass. *)
let prop_optimized_ir_verifies =
  QCheck.Test.make ~name:"optimized IR passes the verifier" ~count:100
    QCheck.(pair small_nat small_nat)
    (fun (seed, size) ->
      let f = Gen.random_function ~seed ~size () in
      let m = Gen.module_of_function f in
      match Semcheck.check_module m with
      | _ :: _ -> true (* the frontend rejects it; nothing to lower *)
      | [] ->
        List.for_all
          (fun sec ->
            ignore (Midend.Opt.optimize_section ~level:3 ~verify_each:true sec);
            Midend.Irverify.check_section sec = [])
          (Midend.Lower.lower_module m))

(* A draw of the property above that once failed at -O2 and -O3:
   constant folding turned a [sel] with equal arms into [d := d], which
   the verifier saw as a use of a possibly-uninitialized register. *)
let test_constfold_no_self_move () =
  List.iter
    (fun level ->
      let m = Gen.module_of_function (Gen.random_function ~seed:30 ~size:5 ()) in
      List.iter
        (fun sec ->
          ignore (Midend.Opt.optimize_section ~level ~verify_each:true sec);
          Alcotest.(check int) (Printf.sprintf "-O%d violations" level) 0
            (List.length (Midend.Irverify.check_section sec)))
        (Midend.Lower.lower_module m))
    [ 2; 3 ]

(* Pretty-printing is idempotent: print (parse (print m)) = print m. *)
let prop_pretty_idempotent =
  QCheck.Test.make ~name:"pretty printing is idempotent" ~count:150
    QCheck.(pair small_nat small_nat)
    (fun (seed, size) ->
      let f = Gen.random_function ~seed ~size () in
      let once = Pretty.func_to_string f in
      let twice = Pretty.func_to_string (Parser.function_of_string once) in
      once = twice)

let suites =
  [
    ( "fuzz",
      [
        QCheck_alcotest.to_alcotest prop_lexer_total;
        QCheck_alcotest.to_alcotest prop_parser_total;
        QCheck_alcotest.to_alcotest prop_parser_on_mutated_source;
        QCheck_alcotest.to_alcotest prop_loader_total;
        QCheck_alcotest.to_alcotest prop_loader_random_bytes;
        QCheck_alcotest.to_alcotest prop_optimized_ir_verifies;
        Alcotest.test_case "constfold leaves no self-move" `Quick test_constfold_no_self_move;
        QCheck_alcotest.to_alcotest prop_pretty_idempotent;
      ] );
  ]
