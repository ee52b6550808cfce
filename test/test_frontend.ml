(* The front end against its oracles (frontend_oracle.ml): the Buffer
   printer renders every AST exactly as the Format printer did; the
   lexer yields the same (token, location) stream, or the same error,
   and its list-free count agrees; the parser returns the same AST or
   the same error.  Inputs: random ASTs over every constructor, random
   printable strings, token soups with mixed-case keywords, comments
   and CRLF line ends, and mutations of the shipped examples and of
   printed random modules.

   A golden table pins Depan's fi_hash and cache keys for the paper's
   five size classes and every shipped example, so the hash recipe
   cannot drift through the printer unnoticed. *)

module Ast = W2.Ast
module O = Frontend_oracle

let loc = W2.Loc.dummy
let ex e = { Ast.e; eloc = loc }
let st s = { Ast.s; sloc = loc }
let count = 300

(* --- random ASTs over every constructor --- *)

let gen_name = QCheck.Gen.oneofl [ "a"; "b1"; "x_y"; "Count"; "g0"; "_t" ]

let gen_ty =
  QCheck.Gen.(
    fix
      (fun self d ->
        let scalar = oneofl [ Ast.Tint; Ast.Tfloat; Ast.Tbool ] in
        if d = 0 then scalar
        else
          frequency
            [ (2, scalar);
              (1, map2 (fun n t -> Ast.Tarray (n, t)) (int_range (-2) 64) (self (d - 1))) ])
      3)

let gen_int =
  QCheck.Gen.(
    oneof [ small_signed_int; int; oneofl [ 0; -1; max_int; min_int; min_int + 1 ] ])

let gen_float =
  QCheck.Gen.(
    oneof
      [ map (fun i -> float_of_int i /. 4.0) small_signed_int;
        float;
        oneofl
          [ 0.0; -0.0; 1e16; -1e16; 1e20; 6.02e23; 1.5e-7; -2.5e-300; 1e308;
            5e-324; 0.1; -123.456; Float.infinity; Float.neg_infinity ] ])

let gen_expr =
  QCheck.Gen.(
    fix (fun self d ->
        let leaf =
          oneof
            [ map (fun i -> ex (Ast.Int_lit i)) gen_int;
              map (fun f -> ex (Ast.Float_lit f)) gen_float;
              map (fun b -> ex (Ast.Bool_lit b)) bool;
              map (fun v -> ex (Ast.Var v)) gen_name ]
        in
        if d = 0 then leaf
        else
          let sub = self (d - 1) in
          frequency
            [ (2, leaf);
              (1, map2 (fun v i -> ex (Ast.Index (v, i))) gen_name sub);
              (1, map2 (fun op a -> ex (Ast.Unary (op, a))) (oneofl [ Ast.Neg; Ast.Not ]) sub);
              ( 2,
                map3
                  (fun op a b -> ex (Ast.Binary (op, a, b)))
                  (oneofl
                     Ast.[ Add; Sub; Mul; Div; Mod; Eq; Ne; Lt; Le; Gt; Ge; And; Or ])
                  sub sub );
              (1, map2 (fun f args -> ex (Ast.Call (f, args))) gen_name (list_size (int_bound 3) sub)) ]))

let gen_stmts =
  QCheck.Gen.(
    let e = gen_expr 2 in
    let chan = oneofl [ Ast.Chan_x; Ast.Chan_y ] in
    let lvalue =
      oneof
        [ map (fun v -> Ast.Lvar v) gen_name;
          map2 (fun v i -> Ast.Lindex (v, i)) gen_name e ]
    in
    fix (fun self d ->
        let simple =
          [ (3, map2 (fun lv x -> st (Ast.Assign (lv, x))) lvalue e);
            (1, map2 (fun c x -> st (Ast.Send (c, x))) chan e);
            (1, map2 (fun c lv -> st (Ast.Receive (c, lv))) chan lvalue);
            (1, map (fun x -> st (Ast.Return x)) (opt e));
            (1, map2 (fun f args -> st (Ast.Call_stmt (f, args))) gen_name (list_size (int_bound 3) e)) ]
        in
        let compound =
          if d = 0 then []
          else
            let body = self (d - 1) in
            [ (1, map3 (fun c t f -> st (Ast.If (c, t, f))) e body body);
              (1, map2 (fun c b -> st (Ast.While (c, b))) e body);
              (1, map3 (fun (v, lo) hi b -> st (Ast.For (v, lo, hi, b))) (pair gen_name e) e body) ]
        in
        list_size (int_bound 4) (frequency (simple @ compound))))

let gen_decls =
  QCheck.Gen.(
    list_size (int_bound 3)
      (map2 (fun dname dty -> { Ast.dname; dty; dloc = loc }) gen_name gen_ty))

let gen_func =
  QCheck.Gen.(
    map4
      (fun fname params (ret, locals) body ->
        { Ast.fname; params; ret; locals; body; floc = loc })
      gen_name
      (list_size (int_bound 3)
         (map2 (fun pname pty -> { Ast.pname; pty; ploc = loc }) gen_name gen_ty))
      (pair (opt gen_ty) gen_decls)
      (gen_stmts 2))

let gen_module =
  QCheck.Gen.(
    let import_sig =
      map3
        (fun is_name is_params is_ret -> { Ast.is_name; is_params; is_ret; is_loc = loc })
        gen_name (list_size (int_bound 3) gen_ty) (opt gen_ty)
    in
    let import =
      map2
        (fun im_module im_sigs -> { Ast.im_module; im_sigs; im_loc = loc })
        gen_name (list_size (int_range 1 3) import_sig)
    in
    let section =
      map4
        (fun sname cells globals funcs -> { Ast.sname; cells; globals; funcs; secloc = loc })
        gen_name (int_range 1 10) gen_decls (list_size (int_range 1 3) gen_func)
    in
    map4
      (fun mname imports exports sections -> { Ast.mname; imports; exports; sections; mloc = loc })
      gen_name
      (list_size (int_bound 2) import)
      (list_size (int_bound 3) (map (fun ex_name -> { Ast.ex_name; ex_loc = loc }) gen_name))
      (list_size (int_range 1 2) section))

let prop_printer =
  QCheck.Test.make ~count ~name:"printer = Format oracle on every constructor"
    (QCheck.make ~print:O.Pretty.module_to_string gen_module)
    (fun m ->
      W2.Pretty.module_to_string m = O.Pretty.module_to_string m
      && List.for_all
           (fun (sec : Ast.section) ->
             List.for_all
               (fun f ->
                 W2.Pretty.func_to_string f = O.Pretty.func_to_string f
                 && W2.Pretty.func_loc f = O.Pretty.func_loc f)
               sec.Ast.funcs)
           m.Ast.sections)

let prop_expr_printer =
  QCheck.Test.make ~count ~name:"expression printer = Format oracle"
    (QCheck.make ~print:O.Pretty.expr_to_string (gen_expr 4))
    (fun e -> W2.Pretty.expr_to_string e = O.Pretty.expr_to_string e)

(* --- lexer and parser inputs --- *)

let examples = Tutil.examples

(* Characters a mutation writes: every byte class the lexer branches on,
   then any byte at all. *)
let gen_byte =
  QCheck.Gen.(
    frequency
      [ (3, oneofl (List.init 94 (fun i -> Char.chr (33 + i))));
        (1, oneofl [ ' '; '\t'; '\r'; '\n'; '-'; 'e'; 'E'; '.'; '0'; '9'; ':'; '<'; '>'; '=' ]);
        (1, map Char.chr (int_bound 255)) ])

(* One edit of [src]: overwrite a byte, delete or duplicate a span,
   truncate, upper-case a span, or turn newlines into CRLF. *)
let mutate src =
  QCheck.Gen.(
    let n = String.length src in
    int_bound (max 0 (n - 1)) >>= fun pos ->
    int_range 1 12 >>= fun len ->
    let len = min len (n - pos) in
    gen_byte >>= fun c ->
    oneofl [ `Set; `Delete; `Dup; `Cut; `Upper; `Crlf ] >|= function
    | `Set -> String.mapi (fun i x -> if i = pos then c else x) src
    | `Delete -> String.sub src 0 pos ^ String.sub src (pos + len) (n - pos - len)
    | `Dup -> String.sub src 0 (pos + len) ^ String.sub src pos (n - pos)
    | `Cut -> String.sub src 0 pos
    | `Upper ->
      String.mapi (fun i x -> if i >= pos && i < pos + len then Char.uppercase_ascii x else x) src
    | `Crlf -> String.concat "\r\n" (String.split_on_char '\n' src))

let gen_mutated_example =
  QCheck.Gen.(
    oneofl (Lazy.force examples) >>= fun (_, src) ->
    int_range 1 3 >>= fun edits ->
    let rec apply k src = if k = 0 then return src else mutate src >>= apply (k - 1) in
    apply edits src)

let gen_mutated_module =
  QCheck.Gen.(gen_module >>= fun m -> mutate (O.Pretty.module_to_string m))

(* Token soup: mixed-case keywords, identifiers, numbers (exponents,
   malformed exponents, out-of-range integers), operators, comments and
   every kind of line end. *)
let gen_soup =
  QCheck.Gen.(
    let keyword =
      oneofl (List.map fst W2.Token.keyword_table) >>= fun kw ->
      list_size (return (String.length kw)) bool >|= fun ups ->
      String.mapi (fun i c -> if List.nth ups i then Char.uppercase_ascii c else c) kw
    in
    let piece =
      frequency
        [ (4, keyword);
          (2, oneofl [ "x"; "Foo_1"; "_"; "endx"; "ENDING"; "ifx"; "t0" ]);
          ( 2,
            oneofl
              [ "0"; "42"; "3.25"; "1e3"; "2.5E-2"; "7e+1"; "1e"; "1e+"; "5.";
                "4611686018427387903"; "4611686018427387904"; "99999999999999999999";
                "1.5e999"; "007" ] );
          ( 3,
            oneofl
              [ "("; ")"; "["; "]"; ","; ";"; ":"; ":="; "+"; "-"; "*"; "/"; "=";
                "<"; "<="; "<>"; ">"; ">=" ] );
          (1, oneofl [ "-- note\n"; "--\r\n"; "-- tail"; "?"; "!"; "\000" ]) ]
    in
    let space = oneofl [ ""; " "; "\t"; "\n"; "\r\n"; "\r"; "  \n  " ] in
    list_size (int_bound 30) (pair piece space)
    >|= fun parts -> String.concat "" (List.map (fun (a, b) -> a ^ b) parts))

(* --- lexer --- *)

let new_tokens src =
  match W2.Lexer.tokenize src with
  | toks -> Ok toks
  | exception W2.Lexer.Error (msg, l) -> Error (msg, l)

let old_tokens src =
  match O.Lexer.tokenize src with
  | toks -> Ok toks
  | exception O.Lexer.Error (msg, l) -> Error (msg, l)

let new_count src =
  match W2.Lexer.count src with
  | n -> Ok n
  | exception W2.Lexer.Error (msg, l) -> Error (msg, l)

let same_lexing src =
  let old = old_tokens src in
  new_tokens src = old
  && new_count src = Result.map List.length old

let lexer_prop name gen =
  QCheck.Test.make ~count ~name (QCheck.make ~print:String.escaped gen) same_lexing

let prop_lex_printable =
  lexer_prop "lexer = oracle on printable strings" QCheck.Gen.(string_size ~gen:printable (int_bound 40))

let prop_lex_soup =
  lexer_prop "lexer = oracle on keywords, numbers, comments, CRLF" gen_soup

let prop_lex_examples = lexer_prop "lexer = oracle on mutated examples" gen_mutated_example

(* --- parser --- *)

let new_parse src =
  match W2.Parser.module_of_string ~file:"m.w2" src with
  | m -> Ok m
  | exception W2.Lexer.Error (msg, l) -> Error ("lex", msg, l)
  | exception W2.Parser.Error (msg, l) -> Error ("parse", msg, l)

let old_parse src =
  match O.Parser.module_of_string ~file:"m.w2" src with
  | m -> Ok m
  | exception O.Lexer.Error (msg, l) -> Error ("lex", msg, l)
  | exception O.Parser.Error (msg, l) -> Error ("parse", msg, l)

let parser_prop name gen =
  QCheck.Test.make ~count ~name (QCheck.make ~print:String.escaped gen) (fun src ->
      new_parse src = old_parse src)

let prop_parse_examples = parser_prop "parser = oracle on mutated examples" gen_mutated_example

let prop_parse_modules =
  parser_prop "parser = oracle on mutated printed modules" gen_mutated_module

let test_examples_unchanged () =
  List.iter
    (fun (file, src) ->
      Alcotest.(check bool) (file ^ ": tokens") true (same_lexing src);
      match new_parse src with
      | Ok m ->
        Alcotest.(check bool) (file ^ ": AST") true (Ok m = old_parse src);
        Alcotest.(check string) (file ^ ": printed") (O.Pretty.module_to_string m)
          (W2.Pretty.module_to_string m)
      | Error (_, msg, _) -> Alcotest.fail (file ^ ": " ^ msg))
    (Lazy.force examples)

(* --- golden fi_hash and cache keys --- *)

(* One digest per input over "section.function fi_hash key" lines, keys
   at -O2; recorded before the printer and lexer were rewritten. *)
let hash_digest (m : Ast.modul) =
  let t = Analysis.Depan.analyze m in
  let salt = Analysis.Depan.cache_salt ~opt_level:2 ~verify_each:false in
  let lines =
    List.concat_map
      (fun (si : Analysis.Depan.section_info) ->
        let keys = Analysis.Depan.cache_keys ~salt si in
        Array.to_list si.Analysis.Depan.si_funcs
        |> List.map (fun (fi : Analysis.Depan.func_info) ->
               Printf.sprintf "%s.%s %s %s" si.Analysis.Depan.si_name
                 fi.Analysis.Depan.fi_name fi.Analysis.Depan.fi_hash
                 keys.(fi.Analysis.Depan.fi_index)))
      t.Analysis.Depan.dp_sections
  in
  (List.length lines, Digest.to_hex (Digest.string (String.concat "\n" lines)))

let golden =
  [ ("f_tiny", 1, "bacc1b7d9a0f4ca5a961db67fe954a6e");
    ("f_small", 1, "dd9859de111d7791615664a2f48d8c12");
    ("f_medium", 1, "06431174e9a444557aa4eb1d7f66158e");
    ("f_large", 1, "3a22e022c29e4dc569b9931845a2119d");
    ("f_huge", 1, "6900558fd39d39afd89f163805a20c2f");
    ("coupled.w2", 2, "f96967a3215e6234e7da7514fba0820d");
    ("fir.w2", 2, "e3c0cd368b3d283aaa1985cca1c5e1bd");
    ("lint_clean.w2", 2, "f502ab3561ead4044dcc37b677ced44f");
    ("lint_w001.w2", 1, "ae6bdb702da535c667c7efb0f977fa2b");
    ("lint_w002.w2", 1, "cccb16bf1a30192182bf627d9ef16c30");
    ("lint_w003.w2", 1, "accca7da2143b2775707497aa9e088d0");
    ("lint_w004.w2", 1, "931e47276ca20aeaee98169055f2e2c5");
    ("lint_w006.w2", 1, "128b9c825848aa1bcf9b4307f9afa304");
    ("lint_w007.w2", 2, "867181055cd3f1389b7a33837cdf122e");
    ("lint_w008.w2", 3, "c74ae630526477fec59baf380ac4f876");
    ("lint_w009.w2", 1, "b370e57886ed08d6ec893430123ffccd");
    ("matvec.w2", 4, "91164c0117890a60586ff267bf3dbea9");
    ("partitioned.w2", 5, "60df333bc67351ecfb1b396bc8b20adc");
    ("primes.w2", 2, "25b2b4ffbcba7cf25d8161c0b229140f");
    ("racy.w2", 3, "dbcae959aa9455070cbb054df89010a5") ]

let test_golden_hashes () =
  let sizes =
    List.map
      (fun size ->
        let name = W2.Gen.size_name size in
        (name, W2.Gen.module_of_function (W2.Gen.sized_function ~name size)))
      W2.Gen.[ Tiny; Small; Medium; Large; Huge ]
  in
  let files =
    List.map
      (fun (file, src) -> (file, W2.Parser.module_of_string ~file src))
      (Lazy.force examples)
  in
  Alcotest.(check (list string)) "inputs" (List.map (fun (n, _, _) -> n) golden)
    (List.map fst (sizes @ files));
  List.iter2
    (fun (name, funcs, digest) (_, m) ->
      let n, d = hash_digest m in
      Alcotest.(check int) (name ^ ": functions") funcs n;
      Alcotest.(check string) (name ^ ": fi_hash and cache keys") digest d)
    golden (sizes @ files)

let suites =
  [
    ( "frontend.oracles",
      [ Alcotest.test_case "examples lex, parse and print unchanged" `Quick
          test_examples_unchanged;
        Alcotest.test_case "golden fi_hash and cache keys" `Quick test_golden_hashes ]
      @ List.map QCheck_alcotest.to_alcotest
          [ prop_printer; prop_expr_printer; prop_lex_printable; prop_lex_soup;
            prop_lex_examples; prop_parse_examples; prop_parse_modules ] );
  ]
