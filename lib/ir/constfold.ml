(* Constant folding and algebraic simplification.

   Folds operations on immediates, applies exact algebraic identities,
   and turns branches on constants into jumps (unlocking unreachable-
   block removal).  Division and mod by constant zero are never folded:
   they keep their runtime-error semantics.

   Float identities are restricted to those exact for finite values
   (x*1, x/1, x+0, x-0); x*0 is not folded (NaN/infinity). *)

let fold_bin op x y =
  match (op, x, y) with
  | Ir.Iadd, Ir.Imm_int a, Ir.Imm_int b -> Some (Ir.Imm_int (a + b))
  | Ir.Isub, Ir.Imm_int a, Ir.Imm_int b -> Some (Ir.Imm_int (a - b))
  | Ir.Imul, Ir.Imm_int a, Ir.Imm_int b -> Some (Ir.Imm_int (a * b))
  | Ir.Idiv, Ir.Imm_int a, Ir.Imm_int b when b <> 0 -> Some (Ir.Imm_int (a / b))
  | Ir.Imod, Ir.Imm_int a, Ir.Imm_int b when b <> 0 -> Some (Ir.Imm_int (a mod b))
  | Ir.Fadd, Ir.Imm_float a, Ir.Imm_float b -> Some (Ir.Imm_float (a +. b))
  | Ir.Fsub, Ir.Imm_float a, Ir.Imm_float b -> Some (Ir.Imm_float (a -. b))
  | Ir.Fmul, Ir.Imm_float a, Ir.Imm_float b -> Some (Ir.Imm_float (a *. b))
  | Ir.Fdiv, Ir.Imm_float a, Ir.Imm_float b when b <> 0.0 ->
    Some (Ir.Imm_float (a /. b))
  | Ir.Icmp c, Ir.Imm_int a, Ir.Imm_int b ->
    let r =
      match c with
      | Ir.Ceq -> a = b
      | Ir.Cne -> a <> b
      | Ir.Clt -> a < b
      | Ir.Cle -> a <= b
      | Ir.Cgt -> a > b
      | Ir.Cge -> a >= b
    in
    Some (Ir.Imm_int (if r then 1 else 0))
  | Ir.Fcmp c, Ir.Imm_float a, Ir.Imm_float b ->
    let r =
      match c with
      | Ir.Ceq -> a = b
      | Ir.Cne -> a <> b
      | Ir.Clt -> a < b
      | Ir.Cle -> a <= b
      | Ir.Cgt -> a > b
      | Ir.Cge -> a >= b
    in
    Some (Ir.Imm_int (if r then 1 else 0))
  | Ir.Band, Ir.Imm_int a, Ir.Imm_int b ->
    Some (Ir.Imm_int (if a <> 0 && b <> 0 then 1 else 0))
  | Ir.Bor, Ir.Imm_int a, Ir.Imm_int b ->
    Some (Ir.Imm_int (if a <> 0 || b <> 0 then 1 else 0))
  | Ir.Imin, Ir.Imm_int a, Ir.Imm_int b -> Some (Ir.Imm_int (min a b))
  | Ir.Imax, Ir.Imm_int a, Ir.Imm_int b -> Some (Ir.Imm_int (max a b))
  | Ir.Fmin, Ir.Imm_float a, Ir.Imm_float b -> Some (Ir.Imm_float (min a b))
  | Ir.Fmax, Ir.Imm_float a, Ir.Imm_float b -> Some (Ir.Imm_float (max a b))
  | _ -> None

(* Algebraic identities returning the operand the result equals. *)
let identity op x y =
  match (op, x, y) with
  | Ir.Iadd, v, Ir.Imm_int 0 | Ir.Iadd, Ir.Imm_int 0, v -> Some v
  | Ir.Isub, v, Ir.Imm_int 0 -> Some v
  | Ir.Imul, v, Ir.Imm_int 1 | Ir.Imul, Ir.Imm_int 1, v -> Some v
  | Ir.Imul, _, Ir.Imm_int 0 | Ir.Imul, Ir.Imm_int 0, _ -> Some (Ir.Imm_int 0)
  | Ir.Idiv, v, Ir.Imm_int 1 -> Some v
  | Ir.Fadd, v, Ir.Imm_float 0.0 | Ir.Fadd, Ir.Imm_float 0.0, v -> Some v
  | Ir.Fsub, v, Ir.Imm_float 0.0 -> Some v
  | Ir.Fmul, v, Ir.Imm_float 1.0 | Ir.Fmul, Ir.Imm_float 1.0, v -> Some v
  | Ir.Fdiv, v, Ir.Imm_float 1.0 -> Some v
  | Ir.Band, v, Ir.Imm_int 1 | Ir.Band, Ir.Imm_int 1, v -> Some v
  | Ir.Band, _, Ir.Imm_int 0 | Ir.Band, Ir.Imm_int 0, _ -> Some (Ir.Imm_int 0)
  | Ir.Bor, v, Ir.Imm_int 0 | Ir.Bor, Ir.Imm_int 0, v -> Some v
  | Ir.Bor, _, Ir.Imm_int n when n <> 0 -> Some (Ir.Imm_int 1)
  | _ -> None

let fold_un op x =
  match (op, x) with
  | Ir.Ineg, Ir.Imm_int n -> Some (Ir.Imm_int (-n))
  | Ir.Fneg, Ir.Imm_float f -> Some (Ir.Imm_float (-.f))
  | Ir.Bnot, Ir.Imm_int n -> Some (Ir.Imm_int (if n = 0 then 1 else 0))
  | Ir.Itof, Ir.Imm_int n -> Some (Ir.Imm_float (float_of_int n))
  | Ir.Ftoi, Ir.Imm_float f -> Some (Ir.Imm_int (int_of_float f))
  | Ir.Fsqrt, Ir.Imm_float f when f >= 0.0 -> Some (Ir.Imm_float (sqrt f))
  | Ir.Fabs, Ir.Imm_float f -> Some (Ir.Imm_float (abs_float f))
  | Ir.Iabs, Ir.Imm_int n -> Some (Ir.Imm_int (abs n))
  | _ -> None

(* One folding sweep; returns the number of rewrites.  A rewrite that
   would leave [d := d] drops the instruction at once: a self-move in
   the IR reads a register the verifier may see as uninitialized.  A
   block with nothing to fold is left as it is. *)
let run (f : Ir.func) : int =
  let changed = ref 0 in
  let mov d v =
    incr changed;
    if v = Ir.Reg d then None else Some (Ir.Mov (d, v))
  in
  let fold instr =
    match instr with
    | Ir.Bin (op, d, x, y) -> (
      match fold_bin op x y with
      | Some v -> mov d v
      | None -> (
        match identity op x y with
        | Some v -> mov d v
        | None -> Some instr))
    | Ir.Un (op, d, x) -> (
      match fold_un op x with
      | Some v -> mov d v
      | None -> Some instr)
    | Ir.Mov (d, Ir.Reg s) when d = s ->
      incr changed;
      None
    | Ir.Sel (d, Ir.Imm_int c, a, b) -> mov d (if c <> 0 then a else b)
    | Ir.Sel (d, Ir.Imm_float c, a, b) -> mov d (if c <> 0.0 then a else b)
    | Ir.Sel (d, Ir.Reg _, a, b) when a = b -> mov d a
    | Ir.Sel _ | Ir.Mov _ | Ir.Load _ | Ir.Store _ | Ir.Call _ | Ir.Send _
    | Ir.Recv _ ->
      Some instr
  in
  (* [List.filter_map fold], sharing the unchanged tail. *)
  let rec fold_all = function
    | [] as l -> l
    | instr :: rest as l -> (
      let folded = fold instr in
      let rest' = fold_all rest in
      match folded with
      | Some i when i == instr && rest' == rest -> l
      | Some i -> i :: rest'
      | None -> rest')
  in
  Array.iteri
    (fun i (b : Ir.block) ->
      let instrs = fold_all b.instrs in
      let term =
        match b.term with
        | Ir.Branch (Ir.Imm_int c, t, e) ->
          incr changed;
          Ir.Jump (if c <> 0 then t else e)
        | Ir.Branch (Ir.Imm_float c, t, e) ->
          incr changed;
          Ir.Jump (if c <> 0.0 then t else e)
        | other -> other
      in
      Ir.update_block f i instrs term)
    f.blocks;
  !changed
