(* IR interpreter.

   Executes an [Ir.section] with the same observable semantics as
   [W2.Interp] runs the source: same results, same channel traffic, same
   error conditions.  Every optimization pass is differential-tested by
   comparing the two on random programs. *)

type value = Vi of int | Vf of float

exception Error of string
exception Out_of_fuel

type channels = { recv : W2.Ast.channel -> value; send : W2.Ast.channel -> value -> unit }

let null_channels =
  {
    recv = (fun _ -> raise (Error "receive on unconnected channel"));
    send = (fun _ _ -> ());
  }

let value_to_string = function
  | Vi n -> string_of_int n
  | Vf f -> Printf.sprintf "%.6g" f

let as_int = function Vi n -> n | Vf _ -> raise (Error "int expected")
let as_float = function Vf f -> f | Vi _ -> raise (Error "float expected")
let truthy = function Vi n -> n <> 0 | Vf f -> f <> 0.0

type state = {
  funcs : (string, Ir.func) Hashtbl.t;
  channels : channels;
  mutable fuel : int;
}

let default_value = function
  | Ir.Int | Ir.Bool -> Vi 0
  | Ir.Float -> Vf 0.0

let eval_cmp c a b =
  let r =
    match c with
    | Ir.Ceq -> a = b
    | Ir.Cne -> a <> b
    | Ir.Clt -> a < b
    | Ir.Cle -> a <= b
    | Ir.Cgt -> a > b
    | Ir.Cge -> a >= b
  in
  Vi (if r then 1 else 0)

let eval_bin op x y =
  match op with
  | Ir.Iadd -> Vi (as_int x + as_int y)
  | Ir.Isub -> Vi (as_int x - as_int y)
  | Ir.Imul -> Vi (as_int x * as_int y)
  | Ir.Idiv ->
    let d = as_int y in
    if d = 0 then raise (Error "division by zero");
    Vi (as_int x / d)
  | Ir.Imod ->
    let d = as_int y in
    if d = 0 then raise (Error "mod by zero");
    Vi (as_int x mod d)
  | Ir.Fadd -> Vf (as_float x +. as_float y)
  | Ir.Fsub -> Vf (as_float x -. as_float y)
  | Ir.Fmul -> Vf (as_float x *. as_float y)
  | Ir.Fdiv ->
    let d = as_float y in
    if d = 0.0 then raise (Error "division by zero");
    Vf (as_float x /. d)
  | Ir.Icmp c -> eval_cmp c (as_int x) (as_int y)
  | Ir.Fcmp c -> eval_cmp c (as_float x) (as_float y)
  | Ir.Band -> Vi (if truthy x && truthy y then 1 else 0)
  | Ir.Bor -> Vi (if truthy x || truthy y then 1 else 0)
  | Ir.Imin -> Vi (min (as_int x) (as_int y))
  | Ir.Imax -> Vi (max (as_int x) (as_int y))
  | Ir.Fmin -> Vf (min (as_float x) (as_float y))
  | Ir.Fmax -> Vf (max (as_float x) (as_float y))

let eval_un op x =
  match op with
  | Ir.Ineg -> Vi (-as_int x)
  | Ir.Fneg -> Vf (-.as_float x)
  | Ir.Bnot -> Vi (if truthy x then 0 else 1)
  | Ir.Itof -> Vf (float_of_int (as_int x))
  | Ir.Ftoi -> Vi (int_of_float (as_float x))
  | Ir.Fsqrt ->
    let f = as_float x in
    if f < 0.0 then raise (Error "sqrt of negative value");
    Vf (sqrt f)
  | Ir.Fabs -> Vf (abs_float (as_float x))
  | Ir.Iabs -> Vi (abs (as_int x))

let rec call state (f : Ir.func) (args : value list) : value option =
  let regs = Array.init (Ir.num_regs f) (fun r -> default_value f.reg_ty.(r)) in
  let params = List.map (fun (_, _, r) -> r) f.params in
  (if List.length params <> List.length args then
     raise (Error ("arity mismatch calling " ^ f.name)));
  List.iter2 (fun r v -> regs.(r) <- v) params args;
  let arrays = Hashtbl.create 4 in
  List.iter
    (fun (name, size, ty) ->
      Hashtbl.replace arrays name (Array.make size (default_value ty)))
    f.arrays;
  let operand = function
    | Ir.Reg r -> regs.(r)
    | Ir.Imm_int n -> Vi n
    | Ir.Imm_float v -> Vf v
  in
  let array_of name =
    match Hashtbl.find_opt arrays name with
    | Some a -> a
    | None -> raise (Error ("unknown array " ^ name))
  in
  let exec_instr = function
    | Ir.Bin (op, d, x, y) -> regs.(d) <- eval_bin op (operand x) (operand y)
    | Ir.Un (op, d, x) -> regs.(d) <- eval_un op (operand x)
    | Ir.Mov (d, x) -> regs.(d) <- operand x
    | Ir.Sel (d, c, a, b) ->
      regs.(d) <- (if truthy (operand c) then operand a else operand b)
    | Ir.Load (d, a, i) ->
      let arr = array_of a in
      let i = as_int (operand i) in
      if i < 0 || i >= Array.length arr then
        raise (Error (Printf.sprintf "index %d out of bounds" i));
      regs.(d) <- arr.(i)
    | Ir.Store (a, i, v) ->
      let arr = array_of a in
      let i = as_int (operand i) in
      if i < 0 || i >= Array.length arr then
        raise (Error (Printf.sprintf "index %d out of bounds" i));
      arr.(i) <- operand v
    | Ir.Call (dst, name, args) -> (
      let callee =
        match Hashtbl.find_opt state.funcs name with
        | Some f -> f
        | None -> raise (Error ("undefined function " ^ name))
      in
      let result = call state callee (List.map operand args) in
      match (dst, result) with
      | None, _ -> ()
      | Some d, Some v -> regs.(d) <- v
      | Some _, None -> raise (Error (name ^ " returned no value")))
    | Ir.Send (c, v) -> state.channels.send c (operand v)
    | Ir.Recv (c, d) -> regs.(d) <- state.channels.recv c
  in
  let rec run_block label : value option =
    if state.fuel <= 0 then raise Out_of_fuel;
    state.fuel <- state.fuel - 1;
    let b = f.blocks.(label) in
    List.iter
      (fun instr ->
        if state.fuel <= 0 then raise Out_of_fuel;
        state.fuel <- state.fuel - 1;
        exec_instr instr)
      b.instrs;
    match b.term with
    | Ir.Jump l -> run_block l
    | Ir.Branch (c, t, e) -> run_block (if truthy (operand c) then t else e)
    | Ir.Ret None -> None
    | Ir.Ret (Some v) -> Some (operand v)
  in
  run_block Ir.entry_block

(* Run [name] from [section].  [fuel] bounds executed instructions. *)
let run_function ?(fuel = 10_000_000) ?(channels = null_channels)
    (section : Ir.section) ~name ~args : value option =
  let funcs = Hashtbl.create 8 in
  List.iter (fun (f : Ir.func) -> Hashtbl.replace funcs f.Ir.name f) section.funcs;
  let state = { funcs; channels; fuel } in
  match Hashtbl.find_opt funcs name with
  | Some f -> call state f args
  | None -> raise (Error ("undefined function " ^ name))
