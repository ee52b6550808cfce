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
   growable array of registers, with the immediates that represent a
   value in a small side table.  The long arrays hold only integers, and
   the expression table is a {!Keytbl}: a long block fills them with
   hundreds of entries, and young values stored into a long array
   would all be promoted at the next minor collection.  The expression,
   immediate and store-generation tables are cleared between blocks. *)

type key =
  | Kbin of Ir.binop * int * int
  | Kun of Ir.unop * int
  | Ksel of int * int * int
  | Kload of string * int * int (* array, index vn, memory generation *)
  | Kimm_int of int
  | Kimm_float of float

(* Keys hashed and compared field by field; equal exactly when the
   polymorphic [compare] says so. *)
module Keys = Keytbl.Make (struct
  type t = key

  let mix = Keytbl.mix

  let equal a b =
    match (a, b) with
    | Kbin (o, x, y), Kbin (o', x', y') -> x = x' && y = y' && (o == o' || o = o')
    | Kun (o, x), Kun (o', x') -> x = x' && o = o'
    | Ksel (c, x, y), Ksel (c', x', y') -> c = c' && x = x' && y = y'
    | Kload (a, i, g), Kload (a', i', g') -> i = i' && g = g' && String.equal a a'
    | Kimm_int n, Kimm_int n' -> n = n'
    | Kimm_float f, Kimm_float f' -> Float.compare f f' = 0
    | (Kbin _ | Kun _ | Ksel _ | Kload _ | Kimm_int _ | Kimm_float _), _ -> false

  let hash = function
    | Kbin (o, x, y) -> mix (mix (Hashtbl.hash o) x) y
    | Kun (o, x) -> mix (mix 1 (Hashtbl.hash o)) x
    | Ksel (c, x, y) -> mix (mix (mix 2 c) x) y
    | Kload (a, i, g) -> mix (mix (Hashtbl.hash a) i) g
    | Kimm_int n -> mix 3 n
    | Kimm_float f -> mix 4 (Hashtbl.hash f)
end)

type state = {
  mutable next_vn : int;
  mutable stamp : int; (* the current block's *)
  reg_vn : int array; (* current value number of a register... *)
  reg_stamp : int array; (* ...if its stamp is current *)
  mutable rep : int array;
      (* the register representing a vn, or -1 when an immediate does *)
  imm_rep : (int, Ir.operand) Hashtbl.t; (* the immediate representing a vn *)
  expr_vn : int Keys.t; (* value number of an expression *)
  mem_gen : (string, int) Hashtbl.t; (* store generation per array *)
}

(* The current value number of [r], or -1. *)
let current st r = if st.reg_stamp.(r) = st.stamp then st.reg_vn.(r) else -1

let set_vn st r v =
  st.reg_vn.(r) <- v;
  st.reg_stamp.(r) <- st.stamp

(* A new value number whose representative is register [r], or the
   immediate [imm] when [r] is -1. *)
let fresh ?imm st r =
  let v = st.next_vn in
  if v = Array.length st.rep then
    st.rep <- Array.append st.rep (Array.make (max 16 v) (-1));
  st.rep.(v) <- r;
  Option.iter (Hashtbl.replace st.imm_rep v) imm;
  st.next_vn <- v + 1;
  v

let vn_of_imm st k imm =
  match Keys.find_opt st.expr_vn k with
  | Some v -> v
  | None ->
    let v = fresh ~imm st (-1) in
    Keys.add st.expr_vn k v;
    v

let vn_of_operand st = function
  | Ir.Reg r ->
    let v = current st r in
    if v >= 0 then v
    else
      let v = fresh st r in
      set_vn st r v;
      v
  | Ir.Imm_int n as imm -> vn_of_imm st (Kimm_int n) imm
  | Ir.Imm_float f as imm -> vn_of_imm st (Kimm_float f) imm

(* Is the representative of [vn] still valid?  An immediate always is;
   a register only while its current vn is unchanged. *)
let valid st vn =
  let r = st.rep.(vn) in
  r < 0 || current st r = vn

let representative st vn =
  let r = st.rep.(vn) in
  if r >= 0 then Ir.Reg r else Hashtbl.find st.imm_rep vn

(* Is [operand] the representative of [vn]?  Structural equality, as
   the polymorphic one. *)
let represents st vn operand =
  let r = st.rep.(vn) in
  match operand with
  | Ir.Reg x -> x = r
  | Ir.Imm_int x -> (
    r < 0 && match Hashtbl.find st.imm_rep vn with Ir.Imm_int y -> x = y | _ -> false)
  | Ir.Imm_float x -> (
    r < 0 && match Hashtbl.find st.imm_rep vn with Ir.Imm_float y -> x = y | _ -> false)

let canon st changed operand =
  let vn = vn_of_operand st operand in
  if valid st vn && not (represents st vn operand) then begin
    incr changed;
    representative st vn
  end
  else operand

(* [d] takes value [vn]; it becomes the representative only if the old
   one is a register that no longer holds [vn] (an immediate
   representative is strictly better). *)
let define st d vn =
  set_vn st d vn;
  let r = st.rep.(vn) in
  if r >= 0 && current st r <> vn then st.rep.(vn) <- d

let define_fresh st d = set_vn st d (fresh st d)

let gen_of st arr = Option.value ~default:0 (Hashtbl.find_opt st.mem_gen arr)

(* A pure computation of [d] keyed by [k]: a move from a live
   representative of [k]'s value, or [instr] with [d] numbered afresh. *)
let number st changed d k instr =
  match Keys.find_opt st.expr_vn k with
  | Some vn when valid st vn ->
    incr changed;
    let rep = representative st vn in
    define st d vn;
    Ir.Mov (d, rep)
  | Some _ | None ->
    let vn = fresh st d in
    Keys.add st.expr_vn k vn;
    set_vn st d vn;
    instr

let run_block st (b : Ir.block) changed =
  let canon = canon st changed in
  let vn = vn_of_operand st in
  let instrs =
    Ir.map_shared
      (fun instr ->
        let instr = Ir.map_uses canon instr in
        match instr with
        | Ir.Bin (op, d, x, y) ->
          let vx = vn x and vy = vn y in
          let vx, vy = if Ir.commutative op && vx > vy then (vy, vx) else (vx, vy) in
          number st changed d (Kbin (op, vx, vy)) instr
        | Ir.Un (op, d, x) -> number st changed d (Kun (op, vn x)) instr
        | Ir.Mov (d, x) ->
          define st d (vn x);
          instr
        | Ir.Sel (d, c, a, b) ->
          let k = Ksel (vn c, vn a, vn b) in
          number st changed d k instr
        | Ir.Load (d, arr, idx) ->
          let k = Kload (arr, vn idx, gen_of st arr) in
          number st changed d k instr
        | Ir.Store (arr, _, _) ->
          Hashtbl.replace st.mem_gen arr (gen_of st arr + 1);
          instr
        | Ir.Call (d, _, _) ->
          Option.iter (define_fresh st) d;
          instr
        | Ir.Send _ -> instr
        | Ir.Recv (_, d) ->
          define_fresh st d;
          instr)
      b.instrs
  in
  (instrs, Ir.map_term_uses canon b.term)

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
      rep = Array.make 64 (-1);
      imm_rep = Hashtbl.create 16;
      expr_vn = Keys.create ();
      mem_gen = Hashtbl.create 4;
    }
  in
  Array.iteri
    (fun i b ->
      st.next_vn <- 0;
      st.stamp <- i;
      Keys.clear st.expr_vn;
      Hashtbl.clear st.imm_rep;
      Hashtbl.clear st.mem_gen;
      let instrs, term = run_block st b changed in
      Ir.update_block f i instrs term)
    f.blocks;
  !changed
