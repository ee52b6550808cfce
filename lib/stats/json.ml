(* The one JSON printer: every machine-readable document (the
   BENCH_*.json sweeps, the analyzer, simulate and profile documents,
   SARIF and the Chrome trace) is built as a [t] and printed here, in
   one fixed layout. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Fixed of int * float
  | Exact of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

let strings items = List (List.map (fun s -> Str s) items)
let option f = function Some x -> f x | None -> Null

let needs_escape c = c = '"' || c = '\\' || Char.code c < 0x20

let add_string b s =
  Buffer.add_char b '"';
  if String.exists needs_escape s then
    String.iter
      (function
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | '\t' -> Buffer.add_string b "\\t"
        | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
        | c -> Buffer.add_char b c)
      s
  else Buffer.add_string b s;
  Buffer.add_char b '"'

let newline b depth =
  Buffer.add_char b '\n';
  for _ = 1 to depth do
    Buffer.add_string b "  "
  done

(* Containers at depth 0 and 1 put one member per line, indented two
   spaces per level; deeper ones print inline. *)
let rec add b depth = function
  | Null -> Buffer.add_string b "null"
  | Bool x -> Buffer.add_string b (string_of_bool x)
  | Int n -> Buffer.add_string b (string_of_int n)
  | (Fixed (_, x) | Exact x) when not (Float.is_finite x) ->
    Buffer.add_string b "null"
  | Fixed (decimals, x) -> Printf.bprintf b "%.*f" decimals x
  | Exact x -> Printf.bprintf b "%.17g" x
  | Str s -> add_string b s
  | List [] -> Buffer.add_string b "[]"
  | Obj [] -> Buffer.add_string b "{}"
  | List items -> members b depth '[' ']' (fun v -> add b (depth + 1) v) items
  | Obj fields ->
    members b depth '{' '}'
      (fun (k, v) ->
        add_string b k;
        Buffer.add_string b ": ";
        add b (depth + 1) v)
      fields

and members : 'a. Buffer.t -> int -> char -> char -> ('a -> unit) -> 'a list -> unit =
 fun b depth opening closing member items ->
  let multiline = depth <= 1 in
  Buffer.add_char b opening;
  List.iteri
    (fun i m ->
      if i > 0 then Buffer.add_char b ',';
      if multiline then newline b (depth + 1)
      else if i > 0 then Buffer.add_char b ' ';
      member m)
    items;
  if multiline then newline b depth;
  Buffer.add_char b closing

let to_string v =
  let b = Buffer.create 4096 in
  add b 0 v;
  Buffer.add_char b '\n';
  Buffer.contents b
