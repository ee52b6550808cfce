(* Tokens of the W2-flavoured source language. *)

type t =
  | INT of int
  | FLOAT of float
  | IDENT of string
  (* keywords *)
  | MODULE
  | IMPORT
  | EXPORT
  | SECTION
  | CELLS
  | FUNCTION
  | BEGIN
  | END
  | VAR
  | IF
  | THEN
  | ELSE
  | WHILE
  | DO
  | FOR
  | TO
  | RETURN
  | SEND
  | RECEIVE
  | TRUE
  | FALSE
  | AND
  | OR
  | NOT
  | MOD
  | TINT
  | TFLOAT
  | TBOOL
  | ARRAY
  | OF
  (* punctuation and operators *)
  | LPAREN
  | RPAREN
  | LBRACKET
  | RBRACKET
  | COMMA
  | SEMI
  | COLON
  | ASSIGN (* := *)
  | PLUS
  | MINUS
  | STAR
  | SLASH
  | EQ
  | NE (* <> *)
  | LT
  | LE
  | GT
  | GE
  | EOF

let keyword_table =
  [
    ("module", MODULE);
    ("import", IMPORT);
    ("export", EXPORT);
    ("section", SECTION);
    ("cells", CELLS);
    ("function", FUNCTION);
    ("begin", BEGIN);
    ("end", END);
    ("var", VAR);
    ("if", IF);
    ("then", THEN);
    ("else", ELSE);
    ("while", WHILE);
    ("do", DO);
    ("for", FOR);
    ("to", TO);
    ("return", RETURN);
    ("send", SEND);
    ("receive", RECEIVE);
    ("true", TRUE);
    ("false", FALSE);
    ("and", AND);
    ("or", OR);
    ("not", NOT);
    ("mod", MOD);
    ("int", TINT);
    ("float", TFLOAT);
    ("bool", TBOOL);
    ("array", ARRAY);
    ("of", OF);
  ]

let to_string = function
  | INT n -> string_of_int n
  | FLOAT f -> string_of_float f
  | IDENT s -> s
  | LPAREN -> "("
  | RPAREN -> ")"
  | LBRACKET -> "["
  | RBRACKET -> "]"
  | COMMA -> ","
  | SEMI -> ";"
  | COLON -> ":"
  | ASSIGN -> ":="
  | PLUS -> "+"
  | MINUS -> "-"
  | STAR -> "*"
  | SLASH -> "/"
  | EQ -> "="
  | NE -> "<>"
  | LT -> "<"
  | LE -> "<="
  | GT -> ">"
  | GE -> ">="
  | EOF -> "<eof>"
  | keyword -> fst (List.find (fun (_, k) -> k = keyword) keyword_table)
