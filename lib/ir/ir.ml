(* Three-address intermediate representation.

   Phase 2 of the compiler (flowgraph construction, local optimization,
   global dependency computation) operates on this IR; phase 3 (software
   pipelining and code generation) consumes it.  Registers are mutable
   virtual registers — the representation is deliberately not SSA, in
   keeping with the era of the paper's compiler.

   Arrays live in per-function local memory and are referred to by name;
   the language has no aliasing (no pointers, no array parameters), so a
   store can only interfere with loads of the same array. *)

type reg = int

type ty = Int | Float | Bool

type operand = Reg of reg | Imm_int of int | Imm_float of float

type cmp = Ceq | Cne | Clt | Cle | Cgt | Cge

type binop =
  | Iadd
  | Isub
  | Imul
  | Idiv
  | Imod
  | Fadd
  | Fsub
  | Fmul
  | Fdiv
  | Icmp of cmp
  | Fcmp of cmp
  | Band (* boolean and, non-short-circuit form used after lowering *)
  | Bor
  | Imin
  | Imax
  | Fmin
  | Fmax

type unop = Ineg | Fneg | Bnot | Itof | Ftoi | Fsqrt | Fabs | Iabs

type instr =
  | Bin of binop * reg * operand * operand
  | Un of unop * reg * operand
  | Mov of reg * operand
  | Sel of reg * operand * operand * operand
    (* d := if cond <> 0 then a else b — produced by if-conversion *)
  | Load of reg * string * operand (* dst, array, index *)
  | Store of string * operand * operand (* array, index, value *)
  | Call of reg option * string * operand list
  | Send of W2.Ast.channel * operand
  | Recv of W2.Ast.channel * reg

type term =
  | Jump of int (* block index *)
  | Branch of operand * int * int (* condition, then-block, else-block *)
  | Ret of operand option

type block = {
  mutable instrs : instr list;
  mutable term : term;
}

type func = {
  name : string;
  params : (string * ty * reg) list;
  arrays : (string * int * ty) list; (* name, size, element type *)
  mutable blocks : block array;
  mutable reg_ty : ty array; (* type of each virtual register *)
  ret_ty : ty option;
}

(* A compiled section: all functions share a channel interface. *)
type section = { sec_name : string; cells : int; funcs : func list }

let entry_block = 0

(* --- small accessors --- *)

let num_regs f = Array.length f.reg_ty

let fresh_reg f ty =
  let r = num_regs f in
  f.reg_ty <- Array.append f.reg_ty [| ty |];
  r

let def_of = function
  | Bin (_, d, _, _) | Un (_, d, _) | Mov (d, _) | Sel (d, _, _, _)
  | Load (d, _, _) | Recv (_, d) ->
    Some d
  | Call (d, _, _) -> d
  | Store _ | Send _ -> None

let uses_of instr =
  let of_operand acc = function Reg r -> r :: acc | Imm_int _ | Imm_float _ -> acc in
  match instr with
  | Bin (_, _, a, b) -> of_operand (of_operand [] a) b
  | Sel (_, c, a, b) -> of_operand (of_operand (of_operand [] c) a) b
  | Un (_, _, a) | Mov (_, a) -> of_operand [] a
  | Load (_, _, i) -> of_operand [] i
  | Store (_, i, v) -> of_operand (of_operand [] i) v
  | Call (_, _, args) -> List.fold_left of_operand [] args
  | Send (_, v) -> of_operand [] v
  | Recv _ -> []

let iter_uses g instr =
  let operand = function Reg r -> g r | Imm_int _ | Imm_float _ -> () in
  match instr with
  | Bin (_, _, a, b) | Store (_, a, b) ->
    operand a;
    operand b
  | Sel (_, c, a, b) ->
    operand c;
    operand a;
    operand b
  | Un (_, _, a) | Mov (_, a) | Load (_, _, a) | Send (_, a) -> operand a
  | Call (_, _, args) -> List.iter operand args
  | Recv _ -> ()

let term_uses = function
  | Jump _ | Ret None -> []
  | Branch (Reg r, _, _) -> [ r ]
  | Branch (_, _, _) -> []
  | Ret (Some (Reg r)) -> [ r ]
  | Ret (Some _) -> []

let successors = function
  | Jump l -> [ l ]
  | Branch (_, t, e) -> if t = e then [ t ] else [ t; e ]
  | Ret _ -> []

(* Side effects: instructions that cannot be removed even if their result
   is dead.  Loads are treated as pure (indices are checker-verified or
   runtime-trapping in the interpreter only). *)
let has_side_effect = function
  | Store _ | Call _ | Send _ | Recv _ -> true
  | Bin _ | Un _ | Mov _ | Sel _ | Load _ -> false

(* Instructions that may trap and therefore must not be speculated
   (hoisted above a guard). *)
let may_trap = function
  | Bin ((Idiv | Imod | Fdiv), _, _, Imm_int 0) -> true
  | Bin ((Idiv | Imod), _, _, (Reg _ | Imm_float _)) -> true
  | Bin (Fdiv, _, _, (Reg _ | Imm_int _)) -> true
  | Bin (Fdiv, _, _, Imm_float f) -> f = 0.0
  | Bin ((Idiv | Imod), _, _, Imm_int _) -> false (* non-zero constant *)
  | Un (Fsqrt, _, _) -> true (* sqrt of negative reports an error *)
  | Bin _ | Un _ | Mov _ | Sel _ | Load _ | Store _ | Call _ | Send _ | Recv _ ->
    false

let commutative = function
  | Iadd | Imul | Fadd | Fmul | Band | Bor | Imin | Imax | Fmin | Fmax
  | Icmp (Ceq | Cne)
  | Fcmp (Ceq | Cne) ->
    true
  | Isub | Idiv | Imod | Fsub | Fdiv
  | Icmp (Clt | Cle | Cgt | Cge)
  | Fcmp (Clt | Cle | Cgt | Cge) ->
    false

(* --- rewriting without rebuilding --- *)

(* [List.map f l], except that where [f] returns every element
   physically unchanged the result shares the input's tail, and is [l]
   itself when nothing changed.  [f] runs on the elements in order. *)
let rec map_shared f = function
  | [] as l -> l
  | x :: rest as l ->
    let y = f x in
    let rest' = map_shared f rest in
    if y == x && rest' == rest then l else y :: rest'

(* [instr] with [g] applied, left to right, to every operand it reads;
   [instr] itself when [g] returns each operand unchanged. *)
let map_uses g instr =
  match instr with
  | Bin (op, d, x, y) ->
    let x' = g x in
    let y' = g y in
    if x' == x && y' == y then instr else Bin (op, d, x', y')
  | Un (op, d, x) ->
    let x' = g x in
    if x' == x then instr else Un (op, d, x')
  | Mov (d, x) ->
    let x' = g x in
    if x' == x then instr else Mov (d, x')
  | Sel (d, c, a, b) ->
    let c' = g c in
    let a' = g a in
    let b' = g b in
    if c' == c && a' == a && b' == b then instr else Sel (d, c', a', b')
  | Load (d, arr, i) ->
    let i' = g i in
    if i' == i then instr else Load (d, arr, i')
  | Store (arr, i, v) ->
    let i' = g i in
    let v' = g v in
    if i' == i && v' == v then instr else Store (arr, i', v')
  | Call (d, name, args) ->
    let args' = map_shared g args in
    if args' == args then instr else Call (d, name, args')
  | Send (c, v) ->
    let v' = g v in
    if v' == v then instr else Send (c, v')
  | Recv _ -> instr

(* [instr] with [g] applied to the register it defines. *)
let map_def g instr =
  match instr with
  | Bin (op, d, x, y) -> Bin (op, g d, x, y)
  | Un (op, d, x) -> Un (op, g d, x)
  | Mov (d, x) -> Mov (g d, x)
  | Sel (d, c, a, b) -> Sel (g d, c, a, b)
  | Load (d, arr, i) -> Load (g d, arr, i)
  | Call (Some d, name, args) -> Call (Some (g d), name, args)
  | Recv (c, d) -> Recv (c, g d)
  | Call (None, _, _) | Store _ | Send _ -> instr

let map_term_uses g term =
  match term with
  | Branch (c, t, e) ->
    let c' = g c in
    if c' == c then term else Branch (c', t, e)
  | Ret (Some v) ->
    let v' = g v in
    if v' == v then term else Ret (Some v')
  | Jump _ | Ret None -> term

let update_block f i instrs term =
  let b = f.blocks.(i) in
  if instrs != b.instrs || term != b.term then f.blocks.(i) <- { instrs; term }

(* --- printing --- *)

let cmp_to_string = function
  | Ceq -> "eq"
  | Cne -> "ne"
  | Clt -> "lt"
  | Cle -> "le"
  | Cgt -> "gt"
  | Cge -> "ge"

let binop_to_string = function
  | Iadd -> "iadd"
  | Isub -> "isub"
  | Imul -> "imul"
  | Idiv -> "idiv"
  | Imod -> "imod"
  | Fadd -> "fadd"
  | Fsub -> "fsub"
  | Fmul -> "fmul"
  | Fdiv -> "fdiv"
  | Icmp c -> "icmp." ^ cmp_to_string c
  | Fcmp c -> "fcmp." ^ cmp_to_string c
  | Band -> "band"
  | Bor -> "bor"
  | Imin -> "imin"
  | Imax -> "imax"
  | Fmin -> "fmin"
  | Fmax -> "fmax"

let unop_to_string = function
  | Ineg -> "ineg"
  | Fneg -> "fneg"
  | Bnot -> "bnot"
  | Itof -> "itof"
  | Ftoi -> "ftoi"
  | Fsqrt -> "fsqrt"
  | Fabs -> "fabs"
  | Iabs -> "iabs"

let operand_to_string = function
  | Reg r -> Printf.sprintf "r%d" r
  | Imm_int n -> string_of_int n
  | Imm_float f -> Printf.sprintf "%g" f

let instr_to_string instr =
  let op = operand_to_string in
  match instr with
  | Bin (b, d, x, y) ->
    Printf.sprintf "r%d := %s %s, %s" d (binop_to_string b) (op x) (op y)
  | Un (u, d, x) -> Printf.sprintf "r%d := %s %s" d (unop_to_string u) (op x)
  | Mov (d, x) -> Printf.sprintf "r%d := %s" d (op x)
  | Sel (d, c, a, b) -> Printf.sprintf "r%d := sel %s ? %s : %s" d (op c) (op a) (op b)
  | Load (d, a, i) -> Printf.sprintf "r%d := %s[%s]" d a (op i)
  | Store (a, i, v) -> Printf.sprintf "%s[%s] := %s" a (op i) (op v)
  | Call (None, f, args) ->
    Printf.sprintf "call %s(%s)" f (String.concat ", " (List.map op args))
  | Call (Some d, f, args) ->
    Printf.sprintf "r%d := call %s(%s)" d f (String.concat ", " (List.map op args))
  | Send (c, v) -> Printf.sprintf "send %s, %s" (W2.Ast.channel_to_string c) (op v)
  | Recv (c, d) -> Printf.sprintf "r%d := recv %s" d (W2.Ast.channel_to_string c)

let term_to_string = function
  | Jump l -> Printf.sprintf "jump L%d" l
  | Branch (c, t, e) ->
    Printf.sprintf "branch %s, L%d, L%d" (operand_to_string c) t e
  | Ret None -> "ret"
  | Ret (Some v) -> Printf.sprintf "ret %s" (operand_to_string v)

let func_to_string f =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "func %s(%s)\n" f.name
       (String.concat ", "
          (List.map (fun (n, _, r) -> Printf.sprintf "%s=r%d" n r) f.params)));
  Array.iteri
    (fun i b ->
      Buffer.add_string buf (Printf.sprintf "L%d:\n" i);
      List.iter
        (fun ins -> Buffer.add_string buf ("  " ^ instr_to_string ins ^ "\n"))
        b.instrs;
      Buffer.add_string buf ("  " ^ term_to_string b.term ^ "\n"))
    f.blocks;
  Buffer.contents buf

(* [Array.of_list] fills a new array with the list's head.  In OCaml 5
   an array of more than 256 words whose fill value is still in the
   minor heap forces a minor collection, which stops every domain; a
   constant fill forces none. *)
let instr_array instrs =
  let a = Array.make (List.length instrs) (Mov (0, Imm_int 0)) in
  List.iteri (fun i op -> a.(i) <- op) instrs;
  a

(* Total instruction count (including terminators): the basic size metric
   used by the compilation cost model. *)
let instr_count f =
  Array.fold_left (fun acc b -> acc + List.length b.instrs + 1) 0 f.blocks
