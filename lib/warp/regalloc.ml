(* Linear-scan register allocation (Poletto/Sarkar style).

   Virtual registers get single conservative live intervals over a
   linearization of the blocks (intervals are extended over whole blocks
   where the register is live-in/live-out, which makes interval overlap
   a sound approximation of interference under any control flow).

   When pressure exceeds the allocatable registers, the active interval
   with the furthest end is spilled to a per-activation array [$spill];
   spill code uses the reserved scratch registers.  Allocation restarts
   after rewriting, and terminates because every restart strictly grows
   the spill set. *)

open Midend

type result = {
  func : Ir.func; (* registers are physical: < Machine.num_regs *)
  param_locs : int list;
  spilled : int; (* total spill slots *)
}

exception Too_many_params of string

let spill_array = "$spill"

(* --- live intervals --- *)

type interval = {
  vreg : int;
  lo : int;
  hi : int; (* half open: [lo, hi) *)
  is_param : bool;
}

(* Intervals in order of [lo], then [vreg].  The bounds are gathered in
   integer arrays: a register table of young records would be promoted
   wholesale at the next minor collection. *)
let intervals_of (f : Ir.func) : interval list =
  let nregs = Ir.num_regs f in
  let lo = Array.make nregs max_int and hi = Array.make nregs min_int in
  let touch r pos =
    if pos < lo.(r) then lo.(r) <- pos;
    if pos + 1 > hi.(r) then hi.(r) <- pos + 1
  in
  let liveness = Liveness.compute f in
  let pos = ref 0 in
  Array.iteri
    (fun bi (b : Ir.block) ->
      let block_start = !pos in
      List.iter
        (fun instr ->
          Ir.iter_uses (fun r -> touch r !pos) instr;
          (match Ir.def_of instr with Some d -> touch d !pos | None -> ());
          incr pos)
        b.instrs;
      (* terminator position *)
      List.iter (fun r -> touch r !pos) (Ir.term_uses b.term);
      let block_end = !pos in
      incr pos;
      Liveness.iter (fun r -> touch r block_start) liveness.Liveness.live_in.(bi);
      Liveness.iter (fun r -> touch r block_end) liveness.Liveness.live_out.(bi))
    f.blocks;
  (* Parameters are live from function entry. *)
  let param = Array.make nregs false in
  List.iter
    (fun (_, _, r) ->
      if lo.(r) = max_int then hi.(r) <- 1;
      lo.(r) <- 0;
      param.(r) <- true)
    f.params;
  let intervals = ref [] in
  for r = nregs - 1 downto 0 do
    if lo.(r) <> max_int then
      intervals := { vreg = r; lo = lo.(r); hi = hi.(r); is_param = param.(r) } :: !intervals
  done;
  List.stable_sort (fun a b -> Int.compare a.lo b.lo) !intervals

(* [itv] inserted into [active] (sorted by [hi]) before the first
   interval that ends no earlier: where a stable sort of
   [itv :: active] by [hi] puts it. *)
let rec insert_by_hi itv = function
  | a :: rest when a.hi < itv.hi -> a :: insert_by_hi itv rest
  | active -> itv :: active

(* The first interval of the list with the furthest end. *)
let furthest = function
  | [] -> None
  | first :: rest ->
    Some (List.fold_left (fun best a -> if a.hi > best.hi then a else best) first rest)

(* --- one allocation attempt --- *)

(* A physical register for every virtual one that has an interval, or
   -1; or the registers to spill. *)
type attempt = Assigned of int array | Spill of int list

let try_allocate ~reg_limit (f : Ir.func) : attempt =
  let intervals = intervals_of f in
  let assignment = Array.make (Ir.num_regs f) (-1) in
  let free = Queue.create () in
  for r = 0 to reg_limit - 1 do
    Queue.push r free
  done;
  let active = ref [] in (* sorted by hi ascending *)
  let to_spill = ref [] in
  (* The expired intervals are the prefix that ends by [pos]. *)
  let rec expire pos = function
    | itv :: rest when itv.hi <= pos ->
      Queue.push assignment.(itv.vreg) free;
      expire pos rest
    | still -> still
  in
  List.iter
    (fun itv ->
      active := expire itv.lo !active;
      if Queue.is_empty free then begin
        (* Spill the non-param interval with the furthest end. *)
        match furthest (List.filter (fun a -> not a.is_param) (itv :: !active)) with
        | None -> raise (Too_many_params f.Ir.name)
        | Some victim ->
          to_spill := victim.vreg :: !to_spill;
          if victim.vreg <> itv.vreg then begin
            (* Steal the victim's register for the new interval. *)
            assignment.(itv.vreg) <- assignment.(victim.vreg);
            assignment.(victim.vreg) <- -1;
            active :=
              insert_by_hi itv (List.filter (fun a -> a.vreg <> victim.vreg) !active)
          end
      end
      else begin
        assignment.(itv.vreg) <- Queue.pop free;
        active := insert_by_hi itv !active
      end)
    intervals;
  if !to_spill = [] then Assigned assignment else Spill !to_spill

(* --- spill-code insertion --- *)

(* Rewrite [f] so that every access to a register of [spills] goes
   through the spill array.  [slot_of] maps a spilled vreg to its slot.
   Scratch registers are fresh *virtual* registers here (they get
   allocated in the next attempt — they have tiny intervals). *)
let insert_spill_code (f : Ir.func) spills slot_of =
  let fresh = Ir.fresh_reg f in
  let is_spilled r = List.mem r spills in
  Array.iteri
    (fun bi (b : Ir.block) ->
      let out = ref [] in
      let emit i = out := i :: !out in
      let reload_operand = function
        | Ir.Reg r when is_spilled r ->
          let t = fresh f.Ir.reg_ty.(r) in
          emit (Ir.Load (t, spill_array, Ir.Imm_int (slot_of r)));
          Ir.Reg t
        | other -> other
      in
      let rewrite_def instr =
        match Ir.def_of instr with
        | Some d when is_spilled d ->
          let t = fresh f.Ir.reg_ty.(d) in
          let instr' =
            match instr with
            | Ir.Bin (op, _, x, y) -> Ir.Bin (op, t, x, y)
            | Ir.Un (op, _, x) -> Ir.Un (op, t, x)
            | Ir.Mov (_, x) -> Ir.Mov (t, x)
            | Ir.Sel (_, c, a, b) -> Ir.Sel (t, c, a, b)
            | Ir.Load (_, a, i) -> Ir.Load (t, a, i)
            | Ir.Recv (c, _) -> Ir.Recv (c, t)
            | Ir.Call (Some _, name, args) -> Ir.Call (Some t, name, args)
            | Ir.Call (None, _, _) | Ir.Store _ | Ir.Send _ -> instr
          in
          emit instr';
          emit (Ir.Store (spill_array, Ir.Imm_int (slot_of d), Ir.Reg t))
        | _ -> emit instr
      in
      List.iter
        (fun instr ->
          let instr =
            match instr with
            | Ir.Bin (op, d, x, y) -> Ir.Bin (op, d, reload_operand x, reload_operand y)
            | Ir.Un (op, d, x) -> Ir.Un (op, d, reload_operand x)
            | Ir.Mov (d, x) -> Ir.Mov (d, reload_operand x)
            | Ir.Sel (d, c, a, b) ->
              Ir.Sel (d, reload_operand c, reload_operand a, reload_operand b)
            | Ir.Load (d, a, i) -> Ir.Load (d, a, reload_operand i)
            | Ir.Store (a, i, v) -> Ir.Store (a, reload_operand i, reload_operand v)
            | Ir.Call (d, name, args) -> Ir.Call (d, name, List.map reload_operand args)
            | Ir.Send (c, v) -> Ir.Send (c, reload_operand v)
            | Ir.Recv _ -> instr
          in
          rewrite_def instr)
        b.instrs;
      let term =
        match b.term with
        | Ir.Branch (c, t, e) -> Ir.Branch (reload_operand c, t, e)
        | Ir.Ret (Some v) -> Ir.Ret (Some (reload_operand v))
        | (Ir.Jump _ | Ir.Ret None) as t -> t
      in
      f.Ir.blocks.(bi) <- { Ir.instrs = List.rev !out; term })
    f.blocks

(* --- renaming to physical registers --- *)

let rename (f : Ir.func) assignment =
  let map r =
    let p = assignment.(r) in
    if p >= 0 then p else 0 (* register never touched: dead, any physical reg works *)
  in
  let operand = function
    | Ir.Reg r -> Ir.Reg (map r)
    | imm -> imm
  in
  Array.iteri
    (fun bi (b : Ir.block) ->
      f.Ir.blocks.(bi) <-
        {
          Ir.instrs = List.map (fun i -> Ir.map_def map (Ir.map_uses operand i)) b.instrs;
          term = Ir.map_term_uses operand b.term;
        })
    f.blocks

let copy_func (f : Ir.func) =
  {
    f with
    Ir.blocks = Array.map (fun b -> { Ir.instrs = b.Ir.instrs; term = b.Ir.term }) f.Ir.blocks;
    reg_ty = Array.copy f.Ir.reg_ty;
  }

let run ?(reg_limit = Machine.num_allocatable) (fin : Ir.func) : result =
  if reg_limit < 4 then invalid_arg "Regalloc.run: need at least 4 registers";
  let f = copy_func fin in
  let spill_slots = Hashtbl.create 8 in
  let next_slot = ref 0 in
  let rec attempt budget =
    if budget = 0 then failwith ("Regalloc.run: spilling does not converge in " ^ f.Ir.name);
    match try_allocate ~reg_limit f with
    | Assigned assignment -> assignment
    | Spill regs ->
      List.iter
        (fun r ->
          if not (Hashtbl.mem spill_slots r) then begin
            Hashtbl.replace spill_slots r !next_slot;
            incr next_slot
          end)
        regs;
      insert_spill_code f regs (Hashtbl.find spill_slots);
      attempt (budget - 1)
  in
  let assignment = attempt 64 in
  let param_locs =
    List.map (fun (_, _, r) -> assignment.(r)) f.Ir.params
  in
  rename f assignment;
  let arrays =
    if !next_slot > 0 then f.Ir.arrays @ [ (spill_array, !next_slot, Ir.Int) ]
    else f.Ir.arrays
  in
  let func =
    {
      f with
      Ir.arrays = arrays;
      (* After renaming, registers are physical; the per-register type
         table no longer applies (a physical register is retyped
         dynamically), so it is collapsed. *)
      reg_ty = Array.make Machine.num_regs Ir.Int;
    }
  in
  { func; param_locs; spilled = !next_slot }
