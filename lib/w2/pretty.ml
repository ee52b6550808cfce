(* Pretty printer producing valid W2 source.  Round-tripping through
   [Parser.module_of_string] is a test invariant, and the line count of
   the rendered text is the "lines of code" metric of section 4.1.

   Everything renders into one [Buffer.t] with direct appends. *)

let str = Buffer.add_string

(* [string_of_int], written digit by digit for the common non-negative
   case. *)
let rec add_digits b n =
  if n >= 10 then add_digits b (n / 10);
  Buffer.add_char b (Char.unsafe_chr (Char.code '0' + (n mod 10)))

let int b n = if n >= 0 then add_digits b n else str b (string_of_int n)

let pad_with b c n =
  for _ = 1 to n do
    Buffer.add_char b c
  done

let pad b indent = pad_with b ' ' indent

(* [items] rendered by [add], separated by ", ". *)
let comma_list add b = function
  | [] -> ()
  | first :: rest ->
    add b first;
    List.iter
      (fun x ->
        str b ", ";
        add b x)
      rest

let rec add_ty b = function
  | Ast.Tint -> str b "int"
  | Ast.Tfloat -> str b "float"
  | Ast.Tbool -> str b "bool"
  | Ast.Tarray (n, elt) ->
    str b "array[";
    int b n;
    str b "] of ";
    add_ty b elt

(* 5^k for k <= 20. *)
let pow5 =
  let a = Array.make 21 1 in
  for k = 1 to 20 do
    a.(k) <- a.(k - 1) * 5
  done;
  a

(* Write [f] as "%.17g" writes it, without [Printf], when that is its
   exact decimal expansion in fixed notation: [f] is at least 1e-4, has
   at most 20 binary fraction digits (so [f] = m / 2^k = m * 5^k / 10^k
   exactly) and at most 17 significant decimal digits.  Returns false,
   having written nothing, otherwise.  Literals such as 0.375 are the
   common case, and [Printf.sprintf] costs several times the rest of
   rendering one. *)
let add_short_decimal b f =
  let rec scale k x =
    if Float.is_integer x then k else if k = 20 then -1 else scale (k + 1) (x *. 2.)
  in
  f >= 1e-4
  &&
  let k = scale 0 f in
  k > 0
  &&
  let m = Float.to_int (Float.ldexp f k) in
  m <= max_int / pow5.(k)
  &&
  let rec strip n k = if n mod 10 = 0 then strip (n / 10) (k - 1) else (n, k) in
  let n, k = strip (m * pow5.(k)) k in
  let digits = string_of_int n in
  let len = String.length digits in
  len <= 17
  && begin
    if len > k then begin
      Buffer.add_substring b digits 0 (len - k);
      Buffer.add_char b '.';
      Buffer.add_substring b digits (len - k) k
    end
    else begin
      str b "0.";
      pad_with b '0' (k - len);
      str b digits
    end;
    true
  end

(* Render a float so that the lexer reads it back exactly: "%.1f" for
   integral values below 1e16 (digit by digit when non-negative), else
   "%.17g" with ".0" appended when that reads as an integer. *)
let add_float b f =
  if Float.is_integer f && Float.abs f < 1e16 then
    if Float.sign_bit f then str b (Printf.sprintf "%.1f" f)
    else begin
      add_digits b (int_of_float f);
      str b ".0"
    end
  else if not (add_short_decimal b f) then begin
    let s = Printf.sprintf "%.17g" f in
    str b s;
    if not (String.contains s '.' || String.contains s 'e') then str b ".0"
  end

(* Expressions are printed fully parenthesised except at the top level of
   each operand; this keeps the printer simple and the output unambiguous
   for the round-trip test. *)
let rec add_expr b (expr : Ast.expr) =
  match expr.e with
  | Ast.Int_lit n ->
    if n < 0 then begin
      str b "(0 - ";
      int b (-n);
      str b ")"
    end
    else int b n
  | Ast.Float_lit f ->
    if f < 0.0 then begin
      str b "(0.0 - ";
      add_float b (-.f);
      str b ")"
    end
    else add_float b f
  | Ast.Bool_lit v -> str b (string_of_bool v)
  | Ast.Var name -> str b name
  | Ast.Index (name, index) -> add_index b name index
  | Ast.Unary (Ast.Neg, operand) ->
    str b "(-";
    add_expr b operand;
    str b ")"
  | Ast.Unary (Ast.Not, operand) ->
    str b "(not ";
    add_expr b operand;
    str b ")"
  | Ast.Binary (op, left, right) ->
    str b "(";
    add_expr b left;
    str b " ";
    str b (Ast.binop_to_string op);
    str b " ";
    add_expr b right;
    str b ")"
  | Ast.Call (name, args) -> add_call b name args

and add_index b name index =
  str b name;
  str b "[";
  add_expr b index;
  str b "]"

and add_call b name args =
  str b name;
  str b "(";
  comma_list add_expr b args;
  str b ")"

let add_lvalue b = function
  | Ast.Lvar name -> str b name
  | Ast.Lindex (name, index) -> add_index b name index

let rec add_stmt b indent (stmt : Ast.stmt) =
  pad b indent;
  (match stmt.s with
  | Ast.Assign (lv, value) ->
    add_lvalue b lv;
    str b " := ";
    add_expr b value
  | Ast.If (cond, then_branch, else_branch) ->
    str b "if ";
    add_expr b cond;
    str b " then\n";
    add_stmts b (indent + 2) then_branch;
    (match else_branch with
    | [] -> ()
    | _ ->
      pad b indent;
      str b "else\n";
      add_stmts b (indent + 2) else_branch);
    add_end b indent
  | Ast.While (cond, body) ->
    str b "while ";
    add_expr b cond;
    str b " do\n";
    add_stmts b (indent + 2) body;
    add_end b indent
  | Ast.For (var, lo, hi, body) ->
    str b "for ";
    str b var;
    str b " := ";
    add_expr b lo;
    str b " to ";
    add_expr b hi;
    str b " do\n";
    add_stmts b (indent + 2) body;
    add_end b indent
  | Ast.Send (chan, value) ->
    str b "send(";
    str b (Ast.channel_to_string chan);
    str b ", ";
    add_expr b value;
    str b ")"
  | Ast.Receive (chan, target) ->
    str b "receive(";
    str b (Ast.channel_to_string chan);
    str b ", ";
    add_lvalue b target;
    str b ")"
  | Ast.Return None -> str b "return"
  | Ast.Return (Some value) ->
    str b "return ";
    add_expr b value
  | Ast.Call_stmt (name, args) -> add_call b name args);
  str b ";\n"

(* The closing "end" of a compound statement; the ";\n" follows. *)
and add_end b indent =
  pad b indent;
  str b "end"

and add_stmts b indent stmts = List.iter (add_stmt b indent) stmts

let add_decl b indent (d : Ast.decl) =
  pad b indent;
  str b "var ";
  str b d.dname;
  str b " : ";
  add_ty b d.dty;
  str b ";\n"

let add_func b indent (f : Ast.func) =
  pad b indent;
  str b "function ";
  str b f.fname;
  str b "(";
  comma_list
    (fun b (p : Ast.param) ->
      str b p.pname;
      str b ": ";
      add_ty b p.pty)
    b f.params;
  str b ")";
  (match f.ret with
  | None -> ()
  | Some ty ->
    str b " : ";
    add_ty b ty);
  str b "\n";
  List.iter (add_decl b (indent + 2)) f.locals;
  pad b indent;
  str b "begin\n";
  add_stmts b (indent + 2) f.body;
  pad b indent;
  str b "end\n"

let add_section b (sec : Ast.section) =
  str b "  section ";
  str b sec.sname;
  str b " cells ";
  int b sec.cells;
  str b "\n";
  List.iter (add_decl b 2) sec.globals;
  List.iter (add_func b 2) sec.funcs;
  str b "  end\n"

let add_import_sig b (s : Ast.import_sig) =
  str b s.is_name;
  str b "(";
  comma_list add_ty b s.is_params;
  str b ")";
  match s.is_ret with
  | None -> ()
  | Some ty ->
    str b " : ";
    add_ty b ty

let add_import b (im : Ast.import_decl) =
  str b "  import ";
  str b im.im_module;
  str b " (";
  comma_list add_import_sig b im.im_sigs;
  str b ");\n"

let add_module b (m : Ast.modul) =
  str b "module ";
  str b m.mname;
  str b "\n";
  List.iter (add_import b) m.imports;
  List.iter
    (fun (e : Ast.export_decl) ->
      str b "  export ";
      str b e.ex_name;
      str b ";\n")
    m.exports;
  List.iter (add_section b) m.sections;
  str b "end\n"

let render size add x =
  let b = Buffer.create size in
  add b x;
  Buffer.contents b

let module_to_string m = render 4096 add_module m
let func_to_string f = render 1024 (fun b -> add_func b 0) f
let expr_to_string e = render 64 add_expr e

(* Physical line count of the rendered source: the LoC metric quoted
   throughout section 4. *)
let source_lines text =
  String.fold_left (fun acc c -> if c = '\n' then acc + 1 else acc) 0 text

let module_loc m = source_lines (module_to_string m)
let func_loc f = source_lines (func_to_string f)
