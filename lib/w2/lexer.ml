(* Hand-written lexer for the W2-flavoured language.

   Comments run from "--" to end of line.  Numbers are decimal; a number
   containing '.' or an exponent is a float literal. *)

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
