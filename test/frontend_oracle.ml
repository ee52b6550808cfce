(* Test-only oracles: the Format-based printer, the peek/advance lexer
   and the parser over it, as W2 had them before the front end moved to
   a Buffer printer and an index-loop lexer.  test_frontend.ml checks
   the library against these byte for byte. *)

module Ast = W2.Ast
module Loc = W2.Loc
module Token = W2.Token

module Pretty = struct
  open Format

  let rec pp_ty fmt = function
    | Ast.Tint -> pp_print_string fmt "int"
    | Ast.Tfloat -> pp_print_string fmt "float"
    | Ast.Tbool -> pp_print_string fmt "bool"
    | Ast.Tarray (n, elt) -> fprintf fmt "array[%d] of %a" n pp_ty elt

  (* Expressions are printed fully parenthesised except at the top level of
     each operand; this keeps the printer simple and the output unambiguous
     for the round-trip test. *)
  let rec pp_expr fmt (expr : Ast.expr) =
    match expr.e with
    | Ast.Int_lit n -> if n < 0 then fprintf fmt "(0 - %d)" (-n) else pp_print_int fmt n
    | Ast.Float_lit f ->
      if f < 0.0 then fprintf fmt "(0.0 - %s)" (float_repr (-.f))
      else pp_print_string fmt (float_repr f)
    | Ast.Bool_lit b -> pp_print_bool fmt b
    | Ast.Var name -> pp_print_string fmt name
    | Ast.Index (name, index) -> fprintf fmt "%s[%a]" name pp_expr index
    | Ast.Unary (Ast.Neg, operand) -> fprintf fmt "(-%a)" pp_expr operand
    | Ast.Unary (Ast.Not, operand) -> fprintf fmt "(not %a)" pp_expr operand
    | Ast.Binary (op, left, right) ->
      fprintf fmt "(%a %s %a)" pp_expr left (Ast.binop_to_string op) pp_expr right
    | Ast.Call (name, args) ->
      fprintf fmt "%s(%a)" name
        (pp_print_list ~pp_sep:(fun fmt () -> pp_print_string fmt ", ") pp_expr)
        args

  (* Render a float so that the lexer reads it back exactly. *)
  and float_repr f =
    if Float.is_integer f && Float.abs f < 1e16 then Printf.sprintf "%.1f" f
    else
      let s = Printf.sprintf "%.17g" f in
      if String.contains s '.' || String.contains s 'e' then s else s ^ ".0"

  let pp_lvalue fmt = function
    | Ast.Lvar name -> pp_print_string fmt name
    | Ast.Lindex (name, index) -> fprintf fmt "%s[%a]" name pp_expr index

  let rec pp_stmt ~indent fmt (stmt : Ast.stmt) =
    let pad = String.make indent ' ' in
    match stmt.s with
    | Ast.Assign (lv, value) ->
      fprintf fmt "%s%a := %a;\n" pad pp_lvalue lv pp_expr value
    | Ast.If (cond, then_branch, []) ->
      fprintf fmt "%sif %a then\n%a%send;\n" pad pp_expr cond
        (pp_stmts ~indent:(indent + 2))
        then_branch pad
    | Ast.If (cond, then_branch, else_branch) ->
      fprintf fmt "%sif %a then\n%a%selse\n%a%send;\n" pad pp_expr cond
        (pp_stmts ~indent:(indent + 2))
        then_branch pad
        (pp_stmts ~indent:(indent + 2))
        else_branch pad
    | Ast.While (cond, body) ->
      fprintf fmt "%swhile %a do\n%a%send;\n" pad pp_expr cond
        (pp_stmts ~indent:(indent + 2))
        body pad
    | Ast.For (var, lo, hi, body) ->
      fprintf fmt "%sfor %s := %a to %a do\n%a%send;\n" pad var pp_expr lo pp_expr
        hi
        (pp_stmts ~indent:(indent + 2))
        body pad
    | Ast.Send (chan, value) ->
      fprintf fmt "%ssend(%s, %a);\n" pad (Ast.channel_to_string chan) pp_expr value
    | Ast.Receive (chan, target) ->
      fprintf fmt "%sreceive(%s, %a);\n" pad
        (Ast.channel_to_string chan)
        pp_lvalue target
    | Ast.Return None -> fprintf fmt "%sreturn;\n" pad
    | Ast.Return (Some value) -> fprintf fmt "%sreturn %a;\n" pad pp_expr value
    | Ast.Call_stmt (name, args) ->
      fprintf fmt "%s%s(%a);\n" pad name
        (pp_print_list ~pp_sep:(fun fmt () -> pp_print_string fmt ", ") pp_expr)
        args

  and pp_stmts ~indent fmt stmts = List.iter (pp_stmt ~indent fmt) stmts

  let pp_func ~indent fmt (f : Ast.func) =
    let pad = String.make indent ' ' in
    let pp_param fmt (p : Ast.param) = fprintf fmt "%s: %a" p.pname pp_ty p.pty in
    fprintf fmt "%sfunction %s(%a)" pad f.fname
      (pp_print_list ~pp_sep:(fun fmt () -> pp_print_string fmt ", ") pp_param)
      f.params;
    (match f.ret with
    | None -> ()
    | Some ty -> fprintf fmt " : %a" pp_ty ty);
    pp_print_string fmt "\n";
    List.iter
      (fun (d : Ast.decl) -> fprintf fmt "%s  var %s : %a;\n" pad d.dname pp_ty d.dty)
      f.locals;
    fprintf fmt "%sbegin\n%a%send\n" pad
      (pp_stmts ~indent:(indent + 2))
      f.body pad

  let pp_section fmt (sec : Ast.section) =
    fprintf fmt "  section %s cells %d\n" sec.sname sec.cells;
    List.iter
      (fun (d : Ast.decl) -> fprintf fmt "  var %s : %a;\n" d.dname pp_ty d.dty)
      sec.globals;
    List.iter (fun f -> pp_func ~indent:2 fmt f) sec.funcs;
    fprintf fmt "  end\n"

  let pp_import_sig fmt (s : Ast.import_sig) =
    fprintf fmt "%s(%a)" s.is_name
      (pp_print_list ~pp_sep:(fun fmt () -> pp_print_string fmt ", ") pp_ty)
      s.is_params;
    match s.is_ret with
    | None -> ()
    | Some ty -> fprintf fmt " : %a" pp_ty ty

  let pp_import fmt (im : Ast.import_decl) =
    fprintf fmt "  import %s (%a);\n" im.im_module
      (pp_print_list ~pp_sep:(fun fmt () -> pp_print_string fmt ", ") pp_import_sig)
      im.im_sigs

  let pp_module fmt (m : Ast.modul) =
    fprintf fmt "module %s\n" m.mname;
    List.iter (pp_import fmt) m.imports;
    List.iter
      (fun (e : Ast.export_decl) -> fprintf fmt "  export %s;\n" e.ex_name)
      m.exports;
    List.iter (pp_section fmt) m.sections;
    fprintf fmt "end\n"

  let module_to_string m = Format.asprintf "%a" pp_module m
  let func_to_string f = Format.asprintf "%a" (pp_func ~indent:0) f
  let expr_to_string e = Format.asprintf "%a" pp_expr e

  (* Physical line count of the rendered source: the LoC metric quoted
     throughout section 4. *)
  let source_lines text =
    String.fold_left (fun acc c -> if c = '\n' then acc + 1 else acc) 0 text

  let module_loc m = source_lines (module_to_string m)
  let func_loc f = source_lines (func_to_string f)
end

module Lexer = struct
  exception Error of string * Loc.t

  type t = {
    src : string;
    file : string;
    mutable pos : int;
    mutable line : int;
    mutable bol : int; (* offset of the beginning of the current line *)
  }

  let create ?(file = "<string>") src = { src; file; pos = 0; line = 1; bol = 0 }

  let location lexer =
    Loc.make ~file:lexer.file ~line:lexer.line ~col:(lexer.pos - lexer.bol + 1)

  let error lexer msg = raise (Error (msg, location lexer))
  let at_end lexer = lexer.pos >= String.length lexer.src
  let peek lexer = if at_end lexer then '\000' else lexer.src.[lexer.pos]

  let peek2 lexer =
    if lexer.pos + 1 >= String.length lexer.src then '\000'
    else lexer.src.[lexer.pos + 1]

  let advance lexer =
    (if peek lexer = '\n' then begin
       lexer.line <- lexer.line + 1;
       lexer.bol <- lexer.pos + 1
     end);
    lexer.pos <- lexer.pos + 1

  let is_digit c = c >= '0' && c <= '9'
  let is_alpha c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
  let is_alnum c = is_alpha c || is_digit c

  let rec skip_trivia lexer =
    match peek lexer with
    | ' ' | '\t' | '\r' | '\n' ->
      advance lexer;
      skip_trivia lexer
    | '-' when peek2 lexer = '-' ->
      while (not (at_end lexer)) && peek lexer <> '\n' do
        advance lexer
      done;
      skip_trivia lexer
    | _ -> ()

  let lex_number lexer =
    let start = lexer.pos in
    while is_digit (peek lexer) do
      advance lexer
    done;
    let is_float = ref false in
    (if peek lexer = '.' && is_digit (peek2 lexer) then begin
       is_float := true;
       advance lexer;
       while is_digit (peek lexer) do
         advance lexer
       done
     end);
    (if peek lexer = 'e' || peek lexer = 'E' then begin
       is_float := true;
       advance lexer;
       if peek lexer = '+' || peek lexer = '-' then advance lexer;
       if not (is_digit (peek lexer)) then error lexer "malformed exponent";
       while is_digit (peek lexer) do
         advance lexer
       done
     end);
    let text = String.sub lexer.src start (lexer.pos - start) in
    if !is_float then Token.FLOAT (float_of_string text)
    else
      match int_of_string_opt text with
      | Some n -> Token.INT n
      | None -> error lexer ("integer literal out of range: " ^ text)

  let keywords =
    let table = Hashtbl.create (2 * List.length Token.keyword_table) in
    List.iter (fun (text, kw) -> Hashtbl.replace table text kw) Token.keyword_table;
    table

  let lex_ident lexer =
    let start = lexer.pos in
    while is_alnum (peek lexer) do
      advance lexer
    done;
    let text = String.sub lexer.src start (lexer.pos - start) in
    match Hashtbl.find_opt keywords (String.lowercase_ascii text) with
    | Some kw -> kw
    | None -> Token.IDENT text

  (* Return the next token together with the location of its first
     character. *)
  let next lexer =
    skip_trivia lexer;
    let loc = location lexer in
    let single tok =
      advance lexer;
      tok
    in
    let tok =
      if at_end lexer then Token.EOF
      else
        match peek lexer with
        | c when is_digit c -> lex_number lexer
        | c when is_alpha c -> lex_ident lexer
        | '(' -> single Token.LPAREN
        | ')' -> single Token.RPAREN
        | '[' -> single Token.LBRACKET
        | ']' -> single Token.RBRACKET
        | ',' -> single Token.COMMA
        | ';' -> single Token.SEMI
        | '+' -> single Token.PLUS
        | '-' -> single Token.MINUS
        | '*' -> single Token.STAR
        | '/' -> single Token.SLASH
        | '=' -> single Token.EQ
        | ':' ->
          advance lexer;
          if peek lexer = '=' then begin
            advance lexer;
            Token.ASSIGN
          end
          else Token.COLON
        | '<' ->
          advance lexer;
          (match peek lexer with
          | '=' ->
            advance lexer;
            Token.LE
          | '>' ->
            advance lexer;
            Token.NE
          | _ -> Token.LT)
        | '>' ->
          advance lexer;
          if peek lexer = '=' then begin
            advance lexer;
            Token.GE
          end
          else Token.GT
        | c -> error lexer (Printf.sprintf "unexpected character %C" c)
    in
    (tok, loc)

  (* Tokenize a whole string; used by tests and by the cost model, which
     charges phase 1 per token. *)
  let tokenize ?file src =
    let lexer = create ?file src in
    let rec loop acc =
      let tok, loc = next lexer in
      if tok = Token.EOF then List.rev ((tok, loc) :: acc)
      else loop ((tok, loc) :: acc)
    in
    loop []
end

module Parser = struct
  exception Error of string * Loc.t

  type t = {
    lexer : Lexer.t;
    mutable tok : Token.t;
    mutable loc : Loc.t;
  }

  let advance p =
    let tok, loc = Lexer.next p.lexer in
    p.tok <- tok;
    p.loc <- loc

  let create ?file src =
    let lexer = Lexer.create ?file src in
    let tok, loc = Lexer.next lexer in
    { lexer; tok; loc }

  let error p msg = raise (Error (msg, p.loc))

  let expect p tok =
    if p.tok = tok then advance p
    else
      error p
        (Printf.sprintf "expected '%s' but found '%s'" (Token.to_string tok)
           (Token.to_string p.tok))

  let expect_ident p =
    match p.tok with
    | Token.IDENT name ->
      advance p;
      name
    | tok -> error p ("expected identifier but found '" ^ Token.to_string tok ^ "'")

  let expect_int p =
    match p.tok with
    | Token.INT n ->
      advance p;
      n
    | tok ->
      error p ("expected integer literal but found '" ^ Token.to_string tok ^ "'")

  let rec parse_type p =
    match p.tok with
    | Token.TINT ->
      advance p;
      Ast.Tint
    | Token.TFLOAT ->
      advance p;
      Ast.Tfloat
    | Token.TBOOL ->
      advance p;
      Ast.Tbool
    | Token.ARRAY ->
      advance p;
      expect p Token.LBRACKET;
      let n = expect_int p in
      expect p Token.RBRACKET;
      expect p Token.OF;
      let elt = parse_type p in
      Ast.Tarray (n, elt)
    | tok -> error p ("expected a type but found '" ^ Token.to_string tok ^ "'")

  let parse_channel p =
    let name = expect_ident p in
    match String.uppercase_ascii name with
    | "X" -> Ast.Chan_x
    | "Y" -> Ast.Chan_y
    | _ -> error p (Printf.sprintf "expected channel X or Y, found '%s'" name)

  (* --- Expressions --- *)

  let rec parse_expr p = parse_or p

  and parse_or p =
    let left = parse_and p in
    if p.tok = Token.OR then begin
      let loc = p.loc in
      advance p;
      let right = parse_or p in
      { Ast.e = Ast.Binary (Ast.Or, left, right); eloc = loc }
    end
    else left

  and parse_and p =
    let left = parse_cmp p in
    if p.tok = Token.AND then begin
      let loc = p.loc in
      advance p;
      let right = parse_and p in
      { Ast.e = Ast.Binary (Ast.And, left, right); eloc = loc }
    end
    else left

  and parse_cmp p =
    let left = parse_additive p in
    let op =
      match p.tok with
      | Token.EQ -> Some Ast.Eq
      | Token.NE -> Some Ast.Ne
      | Token.LT -> Some Ast.Lt
      | Token.LE -> Some Ast.Le
      | Token.GT -> Some Ast.Gt
      | Token.GE -> Some Ast.Ge
      | _ -> None
    in
    match op with
    | None -> left
    | Some op ->
      let loc = p.loc in
      advance p;
      let right = parse_additive p in
      { Ast.e = Ast.Binary (op, left, right); eloc = loc }

  and parse_additive p =
    let rec loop left =
      match p.tok with
      | Token.PLUS | Token.MINUS ->
        let op = if p.tok = Token.PLUS then Ast.Add else Ast.Sub in
        let loc = p.loc in
        advance p;
        let right = parse_multiplicative p in
        loop { Ast.e = Ast.Binary (op, left, right); eloc = loc }
      | _ -> left
    in
    loop (parse_multiplicative p)

  and parse_multiplicative p =
    let rec loop left =
      match p.tok with
      | Token.STAR | Token.SLASH | Token.MOD ->
        let op =
          match p.tok with
          | Token.STAR -> Ast.Mul
          | Token.SLASH -> Ast.Div
          | _ -> Ast.Mod
        in
        let loc = p.loc in
        advance p;
        let right = parse_unary p in
        loop { Ast.e = Ast.Binary (op, left, right); eloc = loc }
      | _ -> left
    in
    loop (parse_unary p)

  and parse_unary p =
    match p.tok with
    | Token.MINUS ->
      let loc = p.loc in
      advance p;
      let operand = parse_unary p in
      { Ast.e = Ast.Unary (Ast.Neg, operand); eloc = loc }
    | Token.NOT ->
      let loc = p.loc in
      advance p;
      let operand = parse_unary p in
      { Ast.e = Ast.Unary (Ast.Not, operand); eloc = loc }
    | _ -> parse_primary p

  and parse_primary p =
    let loc = p.loc in
    match p.tok with
    | Token.INT n ->
      advance p;
      { Ast.e = Ast.Int_lit n; eloc = loc }
    | Token.FLOAT f ->
      advance p;
      { Ast.e = Ast.Float_lit f; eloc = loc }
    | Token.TRUE ->
      advance p;
      { Ast.e = Ast.Bool_lit true; eloc = loc }
    | Token.FALSE ->
      advance p;
      { Ast.e = Ast.Bool_lit false; eloc = loc }
    | Token.LPAREN ->
      advance p;
      let inner = parse_expr p in
      expect p Token.RPAREN;
      inner
    | Token.TFLOAT ->
      (* The int->float conversion builtin shares its name with the type
         keyword. *)
      advance p;
      expect p Token.LPAREN;
      let args = parse_args p in
      expect p Token.RPAREN;
      { Ast.e = Ast.Call ("float", args); eloc = loc }
    | Token.IDENT name -> begin
      advance p;
      match p.tok with
      | Token.LBRACKET ->
        advance p;
        let index = parse_expr p in
        expect p Token.RBRACKET;
        { Ast.e = Ast.Index (name, index); eloc = loc }
      | Token.LPAREN ->
        advance p;
        let args = parse_args p in
        expect p Token.RPAREN;
        { Ast.e = Ast.Call (name, args); eloc = loc }
      | _ -> { Ast.e = Ast.Var name; eloc = loc }
    end
    | tok ->
      error p ("expected an expression but found '" ^ Token.to_string tok ^ "'")

  and parse_args p =
    if p.tok = Token.RPAREN then []
    else
      let rec loop acc =
        let arg = parse_expr p in
        if p.tok = Token.COMMA then begin
          advance p;
          loop (arg :: acc)
        end
        else List.rev (arg :: acc)
      in
      loop []

  (* --- Statements --- *)

  let parse_lvalue p =
    let name = expect_ident p in
    if p.tok = Token.LBRACKET then begin
      advance p;
      let index = parse_expr p in
      expect p Token.RBRACKET;
      Ast.Lindex (name, index)
    end
    else Ast.Lvar name

  let rec parse_stmt p =
    let loc = p.loc in
    match p.tok with
    | Token.IF ->
      advance p;
      let cond = parse_expr p in
      expect p Token.THEN;
      let then_branch = parse_stmts p in
      let else_branch =
        if p.tok = Token.ELSE then begin
          advance p;
          parse_stmts p
        end
        else []
      in
      expect p Token.END;
      expect p Token.SEMI;
      { Ast.s = Ast.If (cond, then_branch, else_branch); sloc = loc }
    | Token.WHILE ->
      advance p;
      let cond = parse_expr p in
      expect p Token.DO;
      let body = parse_stmts p in
      expect p Token.END;
      expect p Token.SEMI;
      { Ast.s = Ast.While (cond, body); sloc = loc }
    | Token.FOR ->
      advance p;
      let var = expect_ident p in
      expect p Token.ASSIGN;
      let lo = parse_expr p in
      expect p Token.TO;
      let hi = parse_expr p in
      expect p Token.DO;
      let body = parse_stmts p in
      expect p Token.END;
      expect p Token.SEMI;
      { Ast.s = Ast.For (var, lo, hi, body); sloc = loc }
    | Token.SEND ->
      advance p;
      expect p Token.LPAREN;
      let chan = parse_channel p in
      expect p Token.COMMA;
      let value = parse_expr p in
      expect p Token.RPAREN;
      expect p Token.SEMI;
      { Ast.s = Ast.Send (chan, value); sloc = loc }
    | Token.RECEIVE ->
      advance p;
      expect p Token.LPAREN;
      let chan = parse_channel p in
      expect p Token.COMMA;
      let target = parse_lvalue p in
      expect p Token.RPAREN;
      expect p Token.SEMI;
      { Ast.s = Ast.Receive (chan, target); sloc = loc }
    | Token.RETURN ->
      advance p;
      if p.tok = Token.SEMI then begin
        advance p;
        { Ast.s = Ast.Return None; sloc = loc }
      end
      else begin
        let value = parse_expr p in
        expect p Token.SEMI;
        { Ast.s = Ast.Return (Some value); sloc = loc }
      end
    | Token.IDENT name -> begin
      advance p;
      match p.tok with
      | Token.LPAREN ->
        advance p;
        let args = parse_args p in
        expect p Token.RPAREN;
        expect p Token.SEMI;
        { Ast.s = Ast.Call_stmt (name, args); sloc = loc }
      | Token.LBRACKET ->
        advance p;
        let index = parse_expr p in
        expect p Token.RBRACKET;
        expect p Token.ASSIGN;
        let value = parse_expr p in
        expect p Token.SEMI;
        { Ast.s = Ast.Assign (Ast.Lindex (name, index), value); sloc = loc }
      | Token.ASSIGN ->
        advance p;
        let value = parse_expr p in
        expect p Token.SEMI;
        { Ast.s = Ast.Assign (Ast.Lvar name, value); sloc = loc }
      | tok ->
        error p
          (Printf.sprintf "expected ':=', '[' or '(' after '%s' but found '%s'"
             name (Token.to_string tok))
    end
    | tok -> error p ("expected a statement but found '" ^ Token.to_string tok ^ "'")

  and parse_stmts p =
    let starts_stmt = function
      | Token.IF | Token.WHILE | Token.FOR | Token.SEND | Token.RECEIVE
      | Token.RETURN | Token.IDENT _ ->
        true
      | _ -> false
    in
    let rec loop acc =
      if starts_stmt p.tok then loop (parse_stmt p :: acc) else List.rev acc
    in
    loop []

  (* --- Declarations and top level --- *)

  let parse_decls p =
    let rec loop acc =
      if p.tok = Token.VAR then begin
        advance p;
        let rec names acc =
          let loc = p.loc in
          let name = expect_ident p in
          if p.tok = Token.COMMA then begin
            advance p;
            names ((name, loc) :: acc)
          end
          else List.rev ((name, loc) :: acc)
        in
        let group = names [] in
        expect p Token.COLON;
        let ty = parse_type p in
        expect p Token.SEMI;
        let decls =
          List.map (fun (name, loc) -> { Ast.dname = name; dty = ty; dloc = loc }) group
        in
        loop (List.rev_append decls acc)
      end
      else List.rev acc
    in
    loop []

  let parse_params p =
    if p.tok = Token.RPAREN then []
    else
      let rec loop acc =
        let loc = p.loc in
        let name = expect_ident p in
        expect p Token.COLON;
        let ty = parse_type p in
        let param = { Ast.pname = name; pty = ty; ploc = loc } in
        if p.tok = Token.COMMA then begin
          advance p;
          loop (param :: acc)
        end
        else List.rev (param :: acc)
      in
      loop []

  let parse_function p =
    let loc = p.loc in
    expect p Token.FUNCTION;
    let name = expect_ident p in
    expect p Token.LPAREN;
    let params = parse_params p in
    expect p Token.RPAREN;
    let ret =
      if p.tok = Token.COLON then begin
        advance p;
        Some (parse_type p)
      end
      else None
    in
    let locals = parse_decls p in
    expect p Token.BEGIN;
    let body = parse_stmts p in
    expect p Token.END;
    { Ast.fname = name; params; ret; locals; body; floc = loc }

  let parse_section p =
    let loc = p.loc in
    expect p Token.SECTION;
    let name = expect_ident p in
    expect p Token.CELLS;
    let cells = expect_int p in
    (* Optional section-level globals: [var] groups before the first
       function, sharing the declaration grammar of function locals. *)
    let globals = parse_decls p in
    let rec loop acc =
      if p.tok = Token.FUNCTION then loop (parse_function p :: acc)
      else List.rev acc
    in
    let funcs = loop [] in
    expect p Token.END;
    if funcs = [] then error p ("section '" ^ name ^ "' declares no function");
    { Ast.sname = name; cells; globals; funcs; secloc = loc }

  (* One imported-function signature: name, parameter types, optional
     return type.  The signature is restated at the import site so the
     module checks without its dependencies' sources. *)
  let parse_import_sig p =
    let loc = p.loc in
    let name = expect_ident p in
    expect p Token.LPAREN;
    let tys =
      if p.tok = Token.RPAREN then []
      else
        let rec loop acc =
          let ty = parse_type p in
          if p.tok = Token.COMMA then begin
            advance p;
            loop (ty :: acc)
          end
          else List.rev (ty :: acc)
        in
        loop []
    in
    expect p Token.RPAREN;
    let ret =
      if p.tok = Token.COLON then begin
        advance p;
        Some (parse_type p)
      end
      else None
    in
    { Ast.is_name = name; is_params = tys; is_ret = ret; is_loc = loc }

  let parse_import p =
    let loc = p.loc in
    expect p Token.IMPORT;
    let from = expect_ident p in
    expect p Token.LPAREN;
    let rec loop acc =
      let s = parse_import_sig p in
      if p.tok = Token.COMMA then begin
        advance p;
        loop (s :: acc)
      end
      else List.rev (s :: acc)
    in
    let sigs = loop [] in
    expect p Token.RPAREN;
    expect p Token.SEMI;
    { Ast.im_module = from; im_sigs = sigs; im_loc = loc }

  let parse_export p =
    expect p Token.EXPORT;
    let rec loop acc =
      let loc = p.loc in
      let name = expect_ident p in
      if p.tok = Token.COMMA then begin
        advance p;
        loop ({ Ast.ex_name = name; ex_loc = loc } :: acc)
      end
      else List.rev ({ Ast.ex_name = name; ex_loc = loc } :: acc)
    in
    let exports = loop [] in
    expect p Token.SEMI;
    exports

  let parse_module p =
    let loc = p.loc in
    expect p Token.MODULE;
    let name = expect_ident p in
    let rec imports acc =
      if p.tok = Token.IMPORT then imports (parse_import p :: acc)
      else List.rev acc
    in
    let imports = imports [] in
    let rec exports acc =
      if p.tok = Token.EXPORT then exports (List.rev_append (parse_export p) acc)
      else List.rev acc
    in
    let exports = exports [] in
    let rec loop acc =
      if p.tok = Token.SECTION then loop (parse_section p :: acc)
      else List.rev acc
    in
    let sections = loop [] in
    expect p Token.END;
    expect p Token.EOF;
    if sections = [] then error p ("module '" ^ name ^ "' declares no section");
    { Ast.mname = name; imports; exports; sections; mloc = loc }

  (* Entry points. *)

  let module_of_string ?file src = parse_module (create ?file src)

  let function_of_string ?file src =
    let p = create ?file src in
    let f = parse_function p in
    expect p Token.EOF;
    f

  let expr_of_string ?file src =
    let p = create ?file src in
    let e = parse_expr p in
    expect p Token.EOF;
    e
end
