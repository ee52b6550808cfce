(* Recursive-descent parser for the W2-flavoured language.

   Grammar (informally):

     module   ::= "module" ID import* export* section+ "end"
     import   ::= "import" ID "(" importsig ("," importsig)* ")" ";"
     importsig::= ID "(" [type ("," type)*] ")" [":" type]
     export   ::= "export" ID ("," ID)* ";"
     section  ::= "section" ID "cells" INT function+ "end"
     function ::= "function" ID "(" params? ")" [":" type]
                  decl* "begin" stmt* "end"
     decl     ::= "var" ID ("," ID)* ":" type ";"
     type     ::= "int" | "float" | "bool" | "array" "[" INT "]" "of" type
     stmt     ::= lvalue ":=" expr ";"
                | "if" expr "then" stmt* ["else" stmt*] "end" ";"
                | "while" expr "do" stmt* "end" ";"
                | "for" ID ":=" expr "to" expr "do" stmt* "end" ";"
                | "send" "(" ("X"|"Y") "," expr ")" ";"
                | "receive" "(" ("X"|"Y") "," lvalue ")" ";"
                | "return" [expr] ";"
                | ID "(" args ")" ";"

   Expressions use the usual precedence ladder:
   or < and < comparison < additive < multiplicative < unary < primary. *)

exception Error of string * Loc.t

type t = {
  lexer : Lexer.t;
  mutable tok : Token.t;
}

let advance p = p.tok <- Lexer.scan p.lexer

let create ?file src =
  let lexer = Lexer.create ?file src in
  { lexer; tok = Lexer.scan lexer }

(* The location of the current token, built only where a node keeps it. *)
let loc p = Lexer.loc p.lexer
let error p msg = raise (Error (msg, loc p))

(* Tokens are compared only against constant constructors, which
   physical equality decides without a call to the polymorphic
   comparison. *)
let expect p tok =
  if p.tok == tok then advance p
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
  if p.tok == Token.OR then begin
    let loc = loc p in
    advance p;
    let right = parse_or p in
    { Ast.e = Ast.Binary (Ast.Or, left, right); eloc = loc }
  end
  else left

and parse_and p =
  let left = parse_cmp p in
  if p.tok == Token.AND then begin
    let loc = loc p in
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
    let loc = loc p in
    advance p;
    let right = parse_additive p in
    { Ast.e = Ast.Binary (op, left, right); eloc = loc }

and parse_additive p =
  let rec loop left =
    match p.tok with
    | Token.PLUS | Token.MINUS ->
      let op = match p.tok with Token.PLUS -> Ast.Add | _ -> Ast.Sub in
      let loc = loc p in
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
      let loc = loc p in
      advance p;
      let right = parse_unary p in
      loop { Ast.e = Ast.Binary (op, left, right); eloc = loc }
    | _ -> left
  in
  loop (parse_unary p)

and parse_unary p =
  match p.tok with
  | Token.MINUS ->
    let loc = loc p in
    advance p;
    let operand = parse_unary p in
    { Ast.e = Ast.Unary (Ast.Neg, operand); eloc = loc }
  | Token.NOT ->
    let loc = loc p in
    advance p;
    let operand = parse_unary p in
    { Ast.e = Ast.Unary (Ast.Not, operand); eloc = loc }
  | _ -> parse_primary p

and parse_primary p =
  match p.tok with
  | Token.LPAREN ->
    advance p;
    let inner = parse_expr p in
    expect p Token.RPAREN;
    inner
  | tok -> parse_atom p (loc p) tok

and parse_atom p loc = function
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
  if p.tok == Token.RPAREN then []
  else
    let rec loop acc =
      let arg = parse_expr p in
      if p.tok == Token.COMMA then begin
        advance p;
        loop (arg :: acc)
      end
      else List.rev (arg :: acc)
    in
    loop []

(* --- Statements --- *)

let parse_lvalue p =
  let name = expect_ident p in
  if p.tok == Token.LBRACKET then begin
    advance p;
    let index = parse_expr p in
    expect p Token.RBRACKET;
    Ast.Lindex (name, index)
  end
  else Ast.Lvar name

let rec parse_stmt p =
  let loc = loc p in
  match p.tok with
  | Token.IF ->
    advance p;
    let cond = parse_expr p in
    expect p Token.THEN;
    let then_branch = parse_stmts p in
    let else_branch =
      if p.tok == Token.ELSE then begin
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
    if p.tok == Token.SEMI then begin
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
    if p.tok == Token.VAR then begin
      advance p;
      let rec names acc =
        let loc = loc p in
        let name = expect_ident p in
        if p.tok == Token.COMMA then begin
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
  if p.tok == Token.RPAREN then []
  else
    let rec loop acc =
      let loc = loc p in
      let name = expect_ident p in
      expect p Token.COLON;
      let ty = parse_type p in
      let param = { Ast.pname = name; pty = ty; ploc = loc } in
      if p.tok == Token.COMMA then begin
        advance p;
        loop (param :: acc)
      end
      else List.rev (param :: acc)
    in
    loop []

let parse_function p =
  let loc = loc p in
  expect p Token.FUNCTION;
  let name = expect_ident p in
  expect p Token.LPAREN;
  let params = parse_params p in
  expect p Token.RPAREN;
  let ret =
    if p.tok == Token.COLON then begin
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
  let loc = loc p in
  expect p Token.SECTION;
  let name = expect_ident p in
  expect p Token.CELLS;
  let cells = expect_int p in
  (* Optional section-level globals: [var] groups before the first
     function, sharing the declaration grammar of function locals. *)
  let globals = parse_decls p in
  let rec loop acc =
    if p.tok == Token.FUNCTION then loop (parse_function p :: acc)
    else List.rev acc
  in
  let funcs = loop [] in
  expect p Token.END;
  if funcs == [] then error p ("section '" ^ name ^ "' declares no function");
  { Ast.sname = name; cells; globals; funcs; secloc = loc }

(* One imported-function signature: name, parameter types, optional
   return type.  The signature is restated at the import site so the
   module checks without its dependencies' sources. *)
let parse_import_sig p =
  let loc = loc p in
  let name = expect_ident p in
  expect p Token.LPAREN;
  let tys =
    if p.tok == Token.RPAREN then []
    else
      let rec loop acc =
        let ty = parse_type p in
        if p.tok == Token.COMMA then begin
          advance p;
          loop (ty :: acc)
        end
        else List.rev (ty :: acc)
      in
      loop []
  in
  expect p Token.RPAREN;
  let ret =
    if p.tok == Token.COLON then begin
      advance p;
      Some (parse_type p)
    end
    else None
  in
  { Ast.is_name = name; is_params = tys; is_ret = ret; is_loc = loc }

let parse_import p =
  let loc = loc p in
  expect p Token.IMPORT;
  let from = expect_ident p in
  expect p Token.LPAREN;
  let rec loop acc =
    let s = parse_import_sig p in
    if p.tok == Token.COMMA then begin
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
    let loc = loc p in
    let name = expect_ident p in
    if p.tok == Token.COMMA then begin
      advance p;
      loop ({ Ast.ex_name = name; ex_loc = loc } :: acc)
    end
    else List.rev ({ Ast.ex_name = name; ex_loc = loc } :: acc)
  in
  let exports = loop [] in
  expect p Token.SEMI;
  exports

let parse_module p =
  let loc = loc p in
  expect p Token.MODULE;
  let name = expect_ident p in
  let rec imports acc =
    if p.tok == Token.IMPORT then imports (parse_import p :: acc)
    else List.rev acc
  in
  let imports = imports [] in
  let rec exports acc =
    if p.tok == Token.EXPORT then exports (List.rev_append (parse_export p) acc)
    else List.rev acc
  in
  let exports = exports [] in
  let rec loop acc =
    if p.tok == Token.SECTION then loop (parse_section p :: acc)
    else List.rev acc
  in
  let sections = loop [] in
  expect p Token.END;
  expect p Token.EOF;
  if sections == [] then error p ("module '" ^ name ^ "' declares no section");
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
