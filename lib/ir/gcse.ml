(* Global common-subexpression elimination, single-definition variant.

   Without SSA, proving that two syntactically equal expressions compute
   the same value requires that none of the involved registers was
   redefined in between.  A sound special case needs no path analysis:

   - the expression is pure, non-trapping and reads no memory;
   - its destination has exactly one definition in the function;
   - every register operand has exactly one definition, and that
     definition dominates the expression
     (so every dominated read observes the same value);

   then any dominated re-computation of the same expression can become
   a move from the first destination.  Local value numbering already
   covers the within-block cases; this pass catches repeats across
   blocks — typically address or bound computations rematerialized in
   several branches. *)

type site = { s_block : int; s_index : int }

(* Does the definition at [def] dominate the use at [use]? *)
let site_dominates dom (def : site) (use : site) =
  if def.s_block = use.s_block then def.s_index < use.s_index
  else Dom.dominates dom def.s_block use.s_block

type key =
  | Kbin of Ir.binop * Ir.operand * Ir.operand
  | Kun of Ir.unop * Ir.operand
  | Ksel of Ir.operand * Ir.operand * Ir.operand

let key_of = function
  | Ir.Bin (op, _, x, y) ->
    let x, y = if Ir.commutative op && x > y then (y, x) else (x, y) in
    Some (Kbin (op, x, y))
  | Ir.Un (op, _, x) -> Some (Kun (op, x))
  | Ir.Sel (_, c, a, b) -> Some (Ksel (c, a, b))
  | Ir.Mov _ | Ir.Load _ | Ir.Store _ | Ir.Call _ | Ir.Send _ | Ir.Recv _ ->
    None

let run (f : Ir.func) : int =
  let n = Array.length f.Ir.blocks in
  (* Definition counts and single-def sites; parameters count as defined
     at function entry (before every instruction). *)
  let nregs = Ir.num_regs f in
  let def_count = Array.make nregs 0 in
  let def_site : site option array = Array.make nregs None in
  List.iter
    (fun (_, _, r) ->
      def_count.(r) <- 1;
      def_site.(r) <- Some { s_block = Ir.entry_block; s_index = -1 })
    f.Ir.params;
  Array.iteri
    (fun bi (b : Ir.block) ->
      List.iteri
        (fun k instr ->
          match Ir.def_of instr with
          | Some d ->
            def_count.(d) <- def_count.(d) + 1;
            def_site.(d) <- Some { s_block = bi; s_index = k }
          | None -> ())
        b.Ir.instrs)
    f.Ir.blocks;
  let single r = def_count.(r) = 1 in
  let dom = Dom.compute f in
  let reachable = Cfg.reachable f in
  (* First sweep: record each eligible expression's first dominating
     definition.  Sweep in reverse postorder so dominators come first. *)
  let table = Hashtbl.create 64 in
  let order = Cfg.reverse_postorder f in
  List.iter
    (fun bi ->
      List.iteri
        (fun k instr ->
          match (key_of instr, Ir.def_of instr) with
          | Some key, Some d
            when single d
                 && (not (Ir.may_trap instr))
                 && List.for_all
                      (fun r ->
                        single r
                        &&
                        match def_site.(r) with
                        | Some s -> site_dominates dom s { s_block = bi; s_index = k }
                        | None -> false)
                      (Ir.uses_of instr) ->
            if not (Hashtbl.mem table key) then
              Hashtbl.replace table key (d, { s_block = bi; s_index = k })
          | _ -> ())
        f.Ir.blocks.(bi).Ir.instrs)
    order;
  (* Second sweep: rewrite dominated duplicates. *)
  let changed = ref 0 in
  for bi = 0 to n - 1 do
    if reachable.(bi) then begin
      let b = f.Ir.blocks.(bi) in
      let instrs =
        List.mapi
          (fun k instr ->
            match (key_of instr, Ir.def_of instr) with
            | Some key, Some d -> (
              match Hashtbl.find_opt table key with
              | Some (rep, def)
                when rep <> d
                     && site_dominates dom def { s_block = bi; s_index = k } ->
                incr changed;
                Ir.Mov (d, Ir.Reg rep)
              | Some (rep, def)
                when rep = d
                     && not (def.s_block = bi && def.s_index = k) ->
                (* A re-definition of the representative itself cannot
                   happen (single-def), so this is the recording site. *)
                instr
              | _ -> instr)
            | _ -> instr)
          b.Ir.instrs
      in
      f.Ir.blocks.(bi) <- { b with Ir.instrs }
    end
  done;
  !changed
