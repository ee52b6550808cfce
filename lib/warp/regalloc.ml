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
  mutable lo : int;
  mutable hi : int; (* half open: [lo, hi) *)
  is_param : bool;
}

let intervals_of (f : Ir.func) : interval list =
  let table = Array.make (Ir.num_regs f) None in
  let touch r pos =
    match table.(r) with
    | Some itv ->
      itv.lo <- min itv.lo pos;
      itv.hi <- max itv.hi (pos + 1)
    | None -> table.(r) <- Some { vreg = r; lo = pos; hi = pos + 1; is_param = false }
  in
  let liveness = Liveness.compute f in
  let pos = ref 0 in
  Array.iteri
    (fun bi (b : Ir.block) ->
      let block_start = !pos in
      List.iter
        (fun instr ->
          List.iter (fun r -> touch r !pos) (Ir.uses_of instr);
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
  List.iter
    (fun (_, _, r) ->
      let hi = match table.(r) with Some itv -> itv.hi | None -> 1 in
      table.(r) <- Some { vreg = r; lo = 0; hi; is_param = true })
    f.params;
  Array.to_list table
  |> List.filter_map Fun.id
  |> List.sort (fun a b -> compare (a.lo, a.vreg) (b.lo, b.vreg))

(* --- one allocation attempt --- *)

type attempt = Assigned of (int, int) Hashtbl.t | Spill of int list

let try_allocate ~reg_limit (f : Ir.func) : attempt =
  let intervals = intervals_of f in
  let assignment = Hashtbl.create 64 in
  let free = Queue.create () in
  for r = 0 to reg_limit - 1 do
    Queue.push r free
  done;
  let active = ref [] in (* sorted by hi ascending *)
  let to_spill = ref [] in
  let expire pos =
    let expired, still = List.partition (fun itv -> itv.hi <= pos) !active in
    List.iter
      (fun itv -> Queue.push (Hashtbl.find assignment itv.vreg) free)
      expired;
    active := still
  in
  List.iter
    (fun itv ->
      expire itv.lo;
      if Queue.is_empty free then begin
        (* Spill the non-param interval with the furthest end. *)
        let candidates =
          List.filter (fun a -> not a.is_param) (itv :: !active)
        in
        match
          List.sort (fun a b -> compare b.hi a.hi) candidates
        with
        | [] -> raise (Too_many_params f.Ir.name)
        | victim :: _ ->
          to_spill := victim.vreg :: !to_spill;
          if victim.vreg <> itv.vreg then begin
            (* Steal the victim's register for the new interval. *)
            let preg = Hashtbl.find assignment victim.vreg in
            Hashtbl.remove assignment victim.vreg;
            Hashtbl.replace assignment itv.vreg preg;
            active := itv :: List.filter (fun a -> a.vreg <> victim.vreg) !active;
            active := List.sort (fun a b -> compare a.hi b.hi) !active
          end
      end
      else begin
        Hashtbl.replace assignment itv.vreg (Queue.pop free);
        active := List.sort (fun a b -> compare a.hi b.hi) (itv :: !active)
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
    match Hashtbl.find_opt assignment r with
    | Some p -> p
    | None -> 0 (* register never touched: dead, any physical reg works *)
  in
  let operand = function
    | Ir.Reg r -> Ir.Reg (map r)
    | imm -> imm
  in
  Array.iteri
    (fun bi (b : Ir.block) ->
      let instrs =
        List.map
          (fun instr ->
            match instr with
            | Ir.Bin (op, d, x, y) -> Ir.Bin (op, map d, operand x, operand y)
            | Ir.Un (op, d, x) -> Ir.Un (op, map d, operand x)
            | Ir.Mov (d, x) -> Ir.Mov (map d, operand x)
            | Ir.Sel (d, c, a, b) -> Ir.Sel (map d, operand c, operand a, operand b)
            | Ir.Load (d, a, i) -> Ir.Load (map d, a, operand i)
            | Ir.Store (a, i, v) -> Ir.Store (a, operand i, operand v)
            | Ir.Call (d, name, args) ->
              Ir.Call (Option.map map d, name, List.map operand args)
            | Ir.Send (c, v) -> Ir.Send (c, operand v)
            | Ir.Recv (c, d) -> Ir.Recv (c, map d))
          b.instrs
      in
      let term =
        match b.term with
        | Ir.Branch (c, t, e) -> Ir.Branch (operand c, t, e)
        | Ir.Ret (Some v) -> Ir.Ret (Some (operand v))
        | (Ir.Jump _ | Ir.Ret None) as t -> t
      in
      f.Ir.blocks.(bi) <- { Ir.instrs; term })
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
    List.map (fun (_, _, r) -> Hashtbl.find assignment r) f.Ir.params
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
