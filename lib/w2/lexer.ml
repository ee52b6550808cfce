(* Hand-written lexer for the W2-flavoured language.

   Comments run from "--" to end of line.  Numbers are decimal; a number
   containing '.' or an exponent is a float literal.

   The scanner walks the source with index loops and keeps the current
   token's position as two integers: a [Loc.t] is built only when a
   caller asks for one, and keywords are matched case-insensitively in
   place, so a keyword or punctuation token allocates nothing. *)

exception Error of string * Loc.t

type t = {
  src : string;
  len : int;
  file : string;
  mutable pos : int;
  mutable line : int;
  mutable bol : int; (* offset of the beginning of the current line *)
  mutable tok_line : int; (* position of the last scanned token *)
  mutable tok_col : int;
}

let create ?(file = "<string>") src =
  {
    src;
    len = String.length src;
    file;
    pos = 0;
    line = 1;
    bol = 0;
    tok_line = 1;
    tok_col = 1;
  }

let loc lexer = Loc.make ~file:lexer.file ~line:lexer.tok_line ~col:lexer.tok_col

let error lexer msg =
  raise
    (Error
       ( msg,
         Loc.make ~file:lexer.file ~line:lexer.line
           ~col:(lexer.pos - lexer.bol + 1) ))

let is_digit c = c >= '0' && c <= '9'
let is_alpha c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_alnum c = is_alpha c || is_digit c

(* The character at [pos], or '\000' past the end. *)
let char_at lexer pos =
  if pos < lexer.len then String.unsafe_get lexer.src pos else '\000'

let rec skip_comment src len pos =
  if pos < len && String.unsafe_get src pos <> '\n' then
    skip_comment src len (pos + 1)
  else pos

(* Skip blanks, newlines and comments from [pos], counting lines. *)
let rec skip_trivia lexer src len pos =
  if pos >= len then pos
  else
    match String.unsafe_get src pos with
    | ' ' | '\t' | '\r' -> skip_trivia lexer src len (pos + 1)
    | '\n' ->
      lexer.line <- lexer.line + 1;
      lexer.bol <- pos + 1;
      skip_trivia lexer src len (pos + 1)
    | '-' when pos + 1 < len && String.unsafe_get src (pos + 1) = '-' ->
      skip_trivia lexer src len (skip_comment src len (pos + 2))
    | _ -> pos

let rec skip_digits src len pos =
  if pos < len && is_digit (String.unsafe_get src pos) then
    skip_digits src len (pos + 1)
  else pos

let rec skip_alnum src len pos =
  if pos < len && is_alnum (String.unsafe_get src pos) then
    skip_alnum src len (pos + 1)
  else pos

(* The decimal value of [src.[pos .. stop-1]], or -1 when it exceeds
   [max_int] (the range [int_of_string] accepts). *)
let rec int_value src pos stop acc =
  if pos >= stop then acc
  else
    let d = Char.code (String.unsafe_get src pos) - Char.code '0' in
    if acc > (max_int - d) / 10 then -1
    else int_value src (pos + 1) stop ((acc * 10) + d)

let lex_number lexer =
  let src = lexer.src and len = lexer.len and start = lexer.pos in
  let is_float = ref false in
  lexer.pos <- skip_digits src len start;
  if char_at lexer lexer.pos = '.' && is_digit (char_at lexer (lexer.pos + 1))
  then begin
    is_float := true;
    lexer.pos <- skip_digits src len (lexer.pos + 1)
  end;
  (match char_at lexer lexer.pos with
  | 'e' | 'E' ->
    is_float := true;
    lexer.pos <-
      (match char_at lexer (lexer.pos + 1) with
      | '+' | '-' -> lexer.pos + 2
      | _ -> lexer.pos + 1);
    if not (is_digit (char_at lexer lexer.pos)) then
      error lexer "malformed exponent";
    lexer.pos <- skip_digits src len lexer.pos
  | _ -> ());
  let stop = lexer.pos in
  if !is_float then
    Token.FLOAT (float_of_string (String.sub src start (stop - start)))
  else
    match int_value src start stop 0 with
    | -1 ->
      error lexer
        ("integer literal out of range: " ^ String.sub src start (stop - start))
    | n -> Token.INT n

(* Keywords bucketed by first letter, so a lookup compares an
   identifier against at most a handful of candidates. *)
let keywords =
  let buckets = Array.make 128 [] in
  List.iter
    (fun (text, kw) ->
      let c = Char.code text.[0] in
      buckets.(c) <- (text, kw) :: buckets.(c))
    Token.keyword_table;
  buckets

(* Does [src.[start ..]] spell the lower-case [text], ignoring case? *)
let rec spells src start text i =
  i >= String.length text
  || Char.lowercase_ascii (String.unsafe_get src (start + i))
     = String.unsafe_get text i
     && spells src start text (i + 1)

let rec keyword src start n = function
  | [] -> Token.IDENT (String.sub src start n)
  | (text, kw) :: rest ->
    if String.length text = n && spells src start text 0 then kw
    else keyword src start n rest

let lex_ident lexer =
  let start = lexer.pos in
  lexer.pos <- skip_alnum lexer.src lexer.len start;
  keyword lexer.src start (lexer.pos - start)
    keywords.(Char.code (Char.lowercase_ascii (String.unsafe_get lexer.src start)))

let single lexer tok =
  lexer.pos <- lexer.pos + 1;
  tok

let double lexer tok =
  lexer.pos <- lexer.pos + 2;
  tok

(* Scan the next token and record the position of its first character. *)
let scan lexer =
  let pos = skip_trivia lexer lexer.src lexer.len lexer.pos in
  lexer.pos <- pos;
  lexer.tok_line <- lexer.line;
  lexer.tok_col <- pos - lexer.bol + 1;
  if pos >= lexer.len then Token.EOF
  else
    match String.unsafe_get lexer.src pos with
    | '0' .. '9' -> lex_number lexer
    | 'a' .. 'z' | 'A' .. 'Z' | '_' -> lex_ident lexer
    | '(' -> single lexer Token.LPAREN
    | ')' -> single lexer Token.RPAREN
    | '[' -> single lexer Token.LBRACKET
    | ']' -> single lexer Token.RBRACKET
    | ',' -> single lexer Token.COMMA
    | ';' -> single lexer Token.SEMI
    | '+' -> single lexer Token.PLUS
    | '-' -> single lexer Token.MINUS
    | '*' -> single lexer Token.STAR
    | '/' -> single lexer Token.SLASH
    | '=' -> single lexer Token.EQ
    | ':' ->
      if char_at lexer (pos + 1) = '=' then double lexer Token.ASSIGN
      else single lexer Token.COLON
    | '<' -> (
      match char_at lexer (pos + 1) with
      | '=' -> double lexer Token.LE
      | '>' -> double lexer Token.NE
      | _ -> single lexer Token.LT)
    | '>' ->
      if char_at lexer (pos + 1) = '=' then double lexer Token.GE
      else single lexer Token.GT
    | c -> error lexer (Printf.sprintf "unexpected character %C" c)

(* Tokenize a whole string; used by tests. *)
let tokenize ?file src =
  let lexer = create ?file src in
  let rec loop acc =
    let tok = scan lexer in
    let acc = (tok, loc lexer) :: acc in
    match tok with Token.EOF -> List.rev acc | _ -> loop acc
  in
  loop []

(* The length of [tokenize src], EOF included, without building the
   list or any location: the cost model charges phase 1 per token. *)
let count src =
  let lexer = create src in
  let rec loop n =
    match scan lexer with
    | Token.EOF -> n + 1
    | _ -> loop (n + 1)
  in
  loop 0
