(* Induction-variable strength reduction.

   A basic induction variable is a register [v] whose only definition
   inside a loop is [v := v + s] for a constant [s].  A multiplication
   [d := v * c] (constant [c]) inside the loop is then replaced by a
   move from a new register [t] that tracks v*c incrementally:

     preheader:              t := v * c
     after  v := v + s:      t := t + s*c
     at the multiply site:   d := t

   On a machine whose integer multiply is slower than its add (Warp's
   ALU), this converts a per-iteration multiply into an add. *)

module Iset = Loops.Iset

(* The unique [v := v + s] definition of each basic IV of the loop. *)
let basic_ivs (f : Ir.func) (l : Loops.loop) =
  let defs = Hashtbl.create 8 in
  (* reg -> (block, index, step) option; None marks disqualified. *)
  Iset.iter
    (fun bi ->
      List.iteri
        (fun k instr ->
          match Ir.def_of instr with
          | None -> ()
          | Some d -> (
            match Hashtbl.find_opt defs d with
            | Some _ -> Hashtbl.replace defs d None (* multiple defs *)
            | None -> (
              match instr with
              | Ir.Bin (Ir.Iadd, v, Ir.Reg v', Ir.Imm_int s) when v = v' ->
                Hashtbl.replace defs d (Some (bi, k, s))
              | Ir.Bin (Ir.Iadd, v, Ir.Imm_int s, Ir.Reg v') when v = v' ->
                Hashtbl.replace defs d (Some (bi, k, s))
              | _ -> Hashtbl.replace defs d None)))
        f.blocks.(bi).instrs)
    l.body;
  Hashtbl.fold
    (fun r site acc -> match site with Some s -> (r, s) :: acc | None -> acc)
    defs []

(* Rewrite one multiply; returns true on success. *)
let reduce_one (f : Ir.func) (l : Loops.loop) =
  let ivs = basic_ivs f l in
  let found = ref None in
  Iset.iter
    (fun bi ->
      if !found = None then
        List.iteri
          (fun k instr ->
            if !found = None then
              match instr with
              | Ir.Bin (Ir.Imul, d, Ir.Reg v, Ir.Imm_int c)
              | Ir.Bin (Ir.Imul, d, Ir.Imm_int c, Ir.Reg v) -> (
                match List.assoc_opt v ivs with
                | Some (ib, ik, s) when d <> v -> found := Some (bi, k, d, v, c, ib, ik, s)
                | Some _ | None -> ())
              | _ -> ())
          f.blocks.(bi).instrs)
    l.body;
  match !found with
  | None -> false
  | Some (bi, k, d, v, c, ib, ik, s) ->
    let t = Ir.fresh_reg f Ir.Int in
    let pre = Licm.ensure_preheader f l in
    (* preheader: t := v * c *)
    let pb = f.blocks.(pre) in
    f.blocks.(pre) <-
      { pb with Ir.instrs = pb.instrs @ [ Ir.Bin (Ir.Imul, t, Ir.Reg v, Ir.Imm_int c) ] };
    (* after the IV increment: t := t + s*c *)
    let inc_block = f.blocks.(ib) in
    let update = Ir.Bin (Ir.Iadd, t, Ir.Reg t, Ir.Imm_int (s * c)) in
    let instrs =
      List.concat
        (List.mapi
           (fun j instr -> if j = ik then [ instr; update ] else [ instr ])
           inc_block.instrs)
    in
    f.blocks.(ib) <- { inc_block with Ir.instrs };
    (* the multiply becomes a move (note: if bi = ib and k > ik the
       indices shifted by one) *)
    let k = if bi = ib && k > ik then k + 1 else k in
    let mb = f.blocks.(bi) in
    let instrs =
      List.mapi
        (fun j instr -> if j = k then Ir.Mov (d, Ir.Reg t) else instr)
        mb.instrs
    in
    f.blocks.(bi) <- { mb with Ir.instrs };
    true

let run (f : Ir.func) : int =
  let reduced = ref 0 in
  let rec go budget =
    if budget > 0 then begin
      let loops = Loops.innermost (Loops.find f) in
      let changed = List.exists (fun l -> reduce_one f l) loops in
      if changed then begin
        incr reduced;
        go (budget - 1)
      end
    end
  in
  go 16;
  !reduced
