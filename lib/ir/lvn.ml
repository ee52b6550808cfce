(* Local value numbering: the "local optimization" half of phase 2.

   Within each basic block, operands are canonicalized to the current
   representative of their value number (which performs local copy and
   constant propagation), and redundant pure computations — including
   loads with no intervening store to the same array — are replaced by
   moves from the register already holding the value (local CSE).

   Calls define fresh values but do *not* invalidate array loads: the
   language has no aliasing, so a callee can never write the caller's
   arrays.

   One state serves the whole function.  Register -> value number is an
   array whose entries count only when their stamp is the current
   block's; value numbers restart at 0 in every block and each gets its
   representative when it is born, so vn -> representative is a plain
   growable array.  The expression and store-generation tables are
   cleared between blocks. *)

type key =
  | Kbin of Ir.binop * int * int
  | Kun of Ir.unop * int
  | Ksel of int * int * int
  | Kload of string * int * int (* array, index vn, memory generation *)
  | Kimm_int of int
  | Kimm_float of float

type state = {
  mutable next_vn : int;
  mutable stamp : int; (* the current block's *)
  reg_vn : int array; (* current value number of a register... *)
  reg_stamp : int array; (* ...if its stamp is current *)
  mutable rep : Ir.operand array; (* representative operand of a vn *)
  expr_vn : (key, int) Hashtbl.t; (* value number of an expression *)
  mem_gen : (string, int) Hashtbl.t; (* store generation per array *)
}

(* The current value number of [r], or -1. *)
let current st r = if st.reg_stamp.(r) = st.stamp then st.reg_vn.(r) else -1

let set_vn st r v =
  st.reg_vn.(r) <- v;
  st.reg_stamp.(r) <- st.stamp

(* A new value number whose representative is [rep]. *)
let fresh st rep =
  let v = st.next_vn in
  if v = Array.length st.rep then
    (* A constant fill: [rep] was just allocated, and a long array
       filled with a young value forces a minor collection. *)
    st.rep <- Array.append st.rep (Array.make (max 16 v) (Ir.Imm_int 0));
  st.rep.(v) <- rep;
  st.next_vn <- v + 1;
  v

let vn_of_expr st k rep =
  match Hashtbl.find_opt st.expr_vn k with
  | Some v -> v
  | None ->
    let v = fresh st rep in
    Hashtbl.replace st.expr_vn k v;
    v

let vn_of_operand st = function
  | Ir.Reg r ->
    let v = current st r in
    if v >= 0 then v
    else
      let v = fresh st (Ir.Reg r) in
      set_vn st r v;
      v
  | Ir.Imm_int n as imm -> vn_of_expr st (Kimm_int n) imm
  | Ir.Imm_float f as imm -> vn_of_expr st (Kimm_float f) imm

(* Is the representative of [vn] still valid?  An immediate always is;
   a register only while its current vn is unchanged. *)
let valid st vn =
  match st.rep.(vn) with
  | Ir.Reg r -> current st r = vn
  | Ir.Imm_int _ | Ir.Imm_float _ -> true

let canon st changed operand =
  let vn = vn_of_operand st operand in
  let rep = st.rep.(vn) in
  if valid st vn && rep <> operand then begin
    incr changed;
    rep
  end
  else operand

(* [d] takes value [vn]; it becomes the representative only if the old
   one is a register that no longer holds [vn] (an immediate
   representative is strictly better). *)
let define st d vn =
  set_vn st d vn;
  match st.rep.(vn) with
  | Ir.Reg r when current st r <> vn -> st.rep.(vn) <- Ir.Reg d
  | Ir.Reg _ | Ir.Imm_int _ | Ir.Imm_float _ -> ()

let define_fresh st d = set_vn st d (fresh st (Ir.Reg d))

let gen_of st arr = Option.value ~default:0 (Hashtbl.find_opt st.mem_gen arr)

(* A pure computation of [d] keyed by [k]: a move from a live
   representative of [k]'s value, or [instr] with [d] numbered afresh. *)
let number st changed d k instr =
  match Hashtbl.find_opt st.expr_vn k with
  | Some vn when valid st vn ->
    incr changed;
    let rep = st.rep.(vn) in
    define st d vn;
    Ir.Mov (d, rep)
  | Some _ | None ->
    let vn = fresh st (Ir.Reg d) in
    Hashtbl.replace st.expr_vn k vn;
    set_vn st d vn;
    instr

let run_block st (b : Ir.block) changed =
  let canon = canon st changed in
  let instrs =
    List.map
      (fun instr ->
        match instr with
        | Ir.Bin (op, d, x, y) ->
          let x = canon x and y = canon y in
          let vx = vn_of_operand st x and vy = vn_of_operand st y in
          let vx, vy = if Ir.commutative op && vx > vy then (vy, vx) else (vx, vy) in
          number st changed d (Kbin (op, vx, vy)) (Ir.Bin (op, d, x, y))
        | Ir.Un (op, d, x) ->
          let x = canon x in
          number st changed d (Kun (op, vn_of_operand st x)) (Ir.Un (op, d, x))
        | Ir.Mov (d, x) ->
          let x = canon x in
          define st d (vn_of_operand st x);
          Ir.Mov (d, x)
        | Ir.Sel (d, c, a, b) ->
          let c = canon c and a = canon a and b = canon b in
          let k = Ksel (vn_of_operand st c, vn_of_operand st a, vn_of_operand st b) in
          number st changed d k (Ir.Sel (d, c, a, b))
        | Ir.Load (d, arr, idx) ->
          let idx = canon idx in
          let k = Kload (arr, vn_of_operand st idx, gen_of st arr) in
          number st changed d k (Ir.Load (d, arr, idx))
        | Ir.Store (arr, idx, v) ->
          let idx = canon idx and v = canon v in
          Hashtbl.replace st.mem_gen arr (gen_of st arr + 1);
          Ir.Store (arr, idx, v)
        | Ir.Call (d, name, args) ->
          let args = List.map canon args in
          Option.iter (define_fresh st) d;
          Ir.Call (d, name, args)
        | Ir.Send (c, v) -> Ir.Send (c, canon v)
        | Ir.Recv (c, d) ->
          define_fresh st d;
          Ir.Recv (c, d))
      b.instrs
  in
  let term =
    match b.term with
    | Ir.Branch (c, t, e) -> Ir.Branch (canon c, t, e)
    | Ir.Ret (Some v) -> Ir.Ret (Some (canon v))
    | (Ir.Jump _ | Ir.Ret None) as t -> t
  in
  { Ir.instrs; term }

(* One sweep over all blocks; numbering starts afresh in each. *)
let run (f : Ir.func) : int =
  let changed = ref 0 in
  let nregs = Ir.num_regs f in
  let st =
    {
      next_vn = 0;
      stamp = 0;
      reg_vn = Array.make nregs 0;
      reg_stamp = Array.make nregs (-1);
      rep = Array.make 64 (Ir.Imm_int 0);
      expr_vn = Hashtbl.create 64;
      mem_gen = Hashtbl.create 4;
    }
  in
  Array.iteri
    (fun i b ->
      st.next_vn <- 0;
      st.stamp <- i;
      Hashtbl.clear st.expr_vn;
      Hashtbl.clear st.mem_gen;
      f.blocks.(i) <- run_block st b changed)
    f.blocks;
  !changed
