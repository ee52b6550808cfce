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

(* Keys hashed and compared field by field; equal exactly when the
   polymorphic [compare] says so. *)
module Keys = Keytbl.Make (struct
  type t = key

  let mix = Keytbl.mix

  let same_operand a b =
    match (a, b) with
    | Ir.Reg x, Ir.Reg y | Ir.Imm_int x, Ir.Imm_int y -> x = y
    | Ir.Imm_float x, Ir.Imm_float y -> Float.compare x y = 0
    | (Ir.Reg _ | Ir.Imm_int _ | Ir.Imm_float _), _ -> false

  let equal a b =
    match (a, b) with
    | Kbin (o, x, y), Kbin (o', x', y') ->
      same_operand x x' && same_operand y y' && (o == o' || o = o')
    | Kun (o, x), Kun (o', x') -> same_operand x x' && o = o'
    | Ksel (c, x, y), Ksel (c', x', y') ->
      same_operand c c' && same_operand x x' && same_operand y y'
    | (Kbin _ | Kun _ | Ksel _), _ -> false

  let operand h = function
    | Ir.Reg r -> mix h r
    | Ir.Imm_int n -> mix (mix h 1) n
    | Ir.Imm_float f -> mix (mix h 2) (Hashtbl.hash f)

  let hash = function
    | Kbin (o, x, y) -> operand (operand (Hashtbl.hash o) x) y
    | Kun (o, x) -> operand (mix 1 (Hashtbl.hash o)) x
    | Ksel (c, x, y) -> operand (operand (operand 2 c) x) y
end)

let key_of = function
  | Ir.Bin (op, _, x, y) ->
    let x, y = if Ir.commutative op && x > y then (y, x) else (x, y) in
    Some (Kbin (op, x, y))
  | Ir.Un (op, _, x) -> Some (Kun (op, x))
  | Ir.Sel (_, c, a, b) -> Some (Ksel (c, a, b))
  | Ir.Mov _ | Ir.Load _ | Ir.Store _ | Ir.Call _ | Ir.Send _ | Ir.Recv _ ->
    None

let run (f : Ir.func) : int =
  (* Definition counts and single-def sites; parameters count as defined
     at function entry (before every instruction). *)
  let nregs = Ir.num_regs f in
  let def_count = Array.make nregs 0 in
  let def_block = Array.make nregs 0 and def_index = Array.make nregs 0 in
  let define r bi k =
    def_count.(r) <- def_count.(r) + 1;
    def_block.(r) <- bi;
    def_index.(r) <- k
  in
  List.iter
    (fun (_, _, r) ->
      define r Ir.entry_block (-1);
      def_count.(r) <- 1)
    f.Ir.params;
  Array.iteri
    (fun bi (b : Ir.block) ->
      List.iteri
        (fun k instr -> Option.iter (fun d -> define d bi k) (Ir.def_of instr))
        b.Ir.instrs)
    f.Ir.blocks;
  let single r = def_count.(r) = 1 in
  (* Only an expression whose register operands all have one definition
     can equal an eligible one, so no other is hashed. *)
  let single_operand = function
    | Ir.Reg r -> single r
    | Ir.Imm_int _ | Ir.Imm_float _ -> true
  in
  let operands_single = function
    | Ir.Bin (_, _, x, y) -> single_operand x && single_operand y
    | Ir.Un (_, _, x) -> single_operand x
    | Ir.Sel (_, c, a, b) -> single_operand c && single_operand a && single_operand b
    | Ir.Mov _ | Ir.Load _ | Ir.Store _ | Ir.Call _ | Ir.Send _ | Ir.Recv _ ->
      false
  in
  let dom = lazy (Dom.compute f) in
  (* First sweep: record each eligible expression's first dominating
     definition.  Sweep in reverse postorder so dominators come first.
     A rewrite needs a dominating earlier definition of the same key,
     which this sweep has recorded by the time it reaches the rewrite
     site; so when no expression meets a recorded key, there is
     nothing to rewrite. *)
  let table = Keys.create () in
  let repeated = ref false in
  List.iter
    (fun bi ->
      List.iteri
        (fun k instr ->
          match Ir.def_of instr with
          | Some d when operands_single instr -> (
            match key_of instr with
            | Some key ->
              if Keys.mem table key then repeated := true
              else if
                single d
                && (not (Ir.may_trap instr))
                && List.for_all
                     (fun r ->
                       site_dominates (Lazy.force dom)
                         { s_block = def_block.(r); s_index = def_index.(r) }
                         { s_block = bi; s_index = k })
                     (Ir.uses_of instr)
              then Keys.add table key (d, { s_block = bi; s_index = k })
            | None -> ())
          | _ -> ())
        f.Ir.blocks.(bi).Ir.instrs)
    (Cfg.reverse_postorder f);
  (* Second sweep: rewrite dominated duplicates. *)
  let changed = ref 0 in
  if !repeated then begin
    let dom = Lazy.force dom in
    let reachable = Cfg.reachable f in
    Array.iteri
      (fun bi (b : Ir.block) ->
        if reachable.(bi) then
          let k = ref (-1) in
          let instrs =
            Ir.map_shared
              (fun instr ->
                incr k;
                match (key_of instr, Ir.def_of instr) with
                | Some key, Some d -> (
                  match Keys.find_opt table key with
                  | Some (rep, def)
                    when rep <> d
                         && site_dominates dom def { s_block = bi; s_index = !k } ->
                    incr changed;
                    Ir.Mov (d, Ir.Reg rep)
                  | _ -> instr)
                | _ -> instr)
              b.Ir.instrs
          in
          Ir.update_block f bi instrs b.Ir.term)
      f.Ir.blocks
  end;
  !changed
