(* Test-only oracles: the phase-2 liveness, dead-code elimination and
   local value numbering as they were before the bitset and array-backed
   rewrites.  The differential properties in test_ir.ml check that the
   library's versions agree with these bit for bit. *)

open Midend

(* Backward liveness over [Set.Make (Int)]. *)
module Liveness = struct
  module Rset = Set.Make (Int)

  type t = { live_in : Rset.t array; live_out : Rset.t array }

  let block_use_def (b : Ir.block) =
    let use = ref Rset.empty and def = ref Rset.empty in
    let step_instr instr =
      List.iter
        (fun r -> if not (Rset.mem r !def) then use := Rset.add r !use)
        (Ir.uses_of instr);
      match Ir.def_of instr with Some d -> def := Rset.add d !def | None -> ()
    in
    List.iter step_instr b.instrs;
    List.iter
      (fun r -> if not (Rset.mem r !def) then use := Rset.add r !use)
      (Ir.term_uses b.term);
    (!use, !def)

  let compute (f : Ir.func) : t =
    let n = Array.length f.blocks in
    let use = Array.make n Rset.empty and def = Array.make n Rset.empty in
    Array.iteri
      (fun i b ->
        let u, d = block_use_def b in
        use.(i) <- u;
        def.(i) <- d)
      f.blocks;
    let live_in = Array.make n Rset.empty in
    let live_out = Array.make n Rset.empty in
    let succs = Cfg.successors f in
    let changed = ref true in
    while !changed do
      changed := false;
      for i = n - 1 downto 0 do
        let out =
          List.fold_left (fun acc s -> Rset.union acc live_in.(s)) Rset.empty succs.(i)
        in
        let inn = Rset.union use.(i) (Rset.diff out def.(i)) in
        if not (Rset.equal out live_out.(i) && Rset.equal inn live_in.(i)) then begin
          live_out.(i) <- out;
          live_in.(i) <- inn;
          changed := true
        end
      done
    done;
    { live_in; live_out }

  (* Slot [k]: the registers live immediately after instruction [k] of
     block [i], terminator uses included. *)
  let per_instr t (f : Ir.func) i =
    let b = f.blocks.(i) in
    let instrs = Array.of_list b.instrs in
    let n = Array.length instrs in
    let after = Array.make n Rset.empty in
    let live = ref (Rset.union t.live_out.(i) (Rset.of_list (Ir.term_uses b.term))) in
    for k = n - 1 downto 0 do
      after.(k) <- !live;
      let instr = instrs.(k) in
      (match Ir.def_of instr with Some d -> live := Rset.remove d !live | None -> ());
      List.iter (fun r -> live := Rset.add r !live) (Ir.uses_of instr)
    done;
    after
end

module Dce = struct
  let run (f : Ir.func) : int =
    let removed = ref 0 in
    let liveness = Liveness.compute f in
    Array.iteri
      (fun i (b : Ir.block) ->
        let after = Liveness.per_instr liveness f i in
        let keep = ref [] in
        List.iteri
          (fun k instr ->
            let dead =
              (not (Ir.has_side_effect instr))
              &&
              match Ir.def_of instr with
              | Some d -> not (Liveness.Rset.mem d after.(k))
              | None -> false
            in
            if dead then incr removed else keep := instr :: !keep)
          b.instrs;
        f.blocks.(i) <- { b with Ir.instrs = List.rev !keep })
      f.blocks;
    !removed
end

(* Local value numbering with four fresh hash tables per block. *)
module Lvn = struct
  type key =
    | Kbin of Ir.binop * int * int
    | Kun of Ir.unop * int
    | Ksel of int * int * int
    | Kload of string * int * int
    | Kimm_int of int
    | Kimm_float of float

  type state = {
    mutable next_vn : int;
    reg_vn : (Ir.reg, int) Hashtbl.t;
    expr_vn : (key, int) Hashtbl.t;
    rep : (int, Ir.operand) Hashtbl.t;
    mem_gen : (string, int) Hashtbl.t;
  }

  let fresh st =
    let v = st.next_vn in
    st.next_vn <- v + 1;
    v

  let vn_of_reg st r =
    match Hashtbl.find_opt st.reg_vn r with
    | Some v -> v
    | None ->
      let v = fresh st in
      Hashtbl.replace st.reg_vn r v;
      Hashtbl.replace st.rep v (Ir.Reg r);
      v

  let vn_of_imm st k imm =
    match Hashtbl.find_opt st.expr_vn k with
    | Some v -> v
    | None ->
      let v = fresh st in
      Hashtbl.replace st.expr_vn k v;
      Hashtbl.replace st.rep v imm;
      v

  let vn_of_operand st = function
    | Ir.Reg r -> vn_of_reg st r
    | Ir.Imm_int n as imm -> vn_of_imm st (Kimm_int n) imm
    | Ir.Imm_float f as imm -> vn_of_imm st (Kimm_float f) imm

  let valid_rep st vn =
    match Hashtbl.find_opt st.rep vn with
    | Some (Ir.Reg r) ->
      if Hashtbl.find_opt st.reg_vn r = Some vn then Some (Ir.Reg r) else None
    | Some imm -> Some imm
    | None -> None

  let canon st changed operand =
    let vn = vn_of_operand st operand in
    match valid_rep st vn with
    | Some rep when rep <> operand ->
      incr changed;
      rep
    | Some _ | None -> operand

  let define st d vn =
    Hashtbl.replace st.reg_vn d vn;
    match Hashtbl.find_opt st.rep vn with
    | Some (Ir.Reg r) when Hashtbl.find_opt st.reg_vn r <> Some vn ->
      Hashtbl.replace st.rep vn (Ir.Reg d)
    | None -> Hashtbl.replace st.rep vn (Ir.Reg d)
    | Some _ -> ()

  let define_fresh st d =
    let v = fresh st in
    Hashtbl.replace st.reg_vn d v;
    Hashtbl.replace st.rep v (Ir.Reg d)

  let gen_of st arr = match Hashtbl.find_opt st.mem_gen arr with Some g -> g | None -> 0

  (* A pure computation keyed by [k]: reuse a live representative, or
     number [d] afresh and keep [instr]. *)
  let number st changed d k instr =
    match Option.bind (Hashtbl.find_opt st.expr_vn k) (valid_rep st) with
    | Some rep ->
      incr changed;
      define st d (Hashtbl.find st.expr_vn k);
      Ir.Mov (d, rep)
    | None ->
      let vn = fresh st in
      Hashtbl.replace st.expr_vn k vn;
      Hashtbl.replace st.reg_vn d vn;
      Hashtbl.replace st.rep vn (Ir.Reg d);
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

  let run (f : Ir.func) : int =
    let changed = ref 0 in
    Array.iteri
      (fun i b ->
        let st =
          {
            next_vn = 0;
            reg_vn = Hashtbl.create 64;
            expr_vn = Hashtbl.create 64;
            rep = Hashtbl.create 64;
            mem_gen = Hashtbl.create 4;
          }
        in
        f.blocks.(i) <- run_block st b changed)
      f.blocks;
    !changed
end
