(* Test-only oracles: the phase-2 liveness, dead-code elimination,
   local value numbering and IR verifier as they were before the bitset
   and array-backed rewrites and before the verifier rendered messages
   only for violations.  The differential properties in test_ir.ml and
   test_irverify.ml check that the library's versions agree with these
   bit for bit. *)

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

(* The verifier over [bool array] dataflow sets, rendering every
   instruction's context up front. *)
module Irverify = struct
  (* Register classes: Int and Bool coincide (booleans are 0/1 integers
     after lowering and passes freely mix them); Float is separate. *)
  type cls = KInt | KFloat

  let cls_of = function Ir.Int | Ir.Bool -> KInt | Ir.Float -> KFloat
  let cls_to_string = function KInt -> "int" | KFloat -> "float"

  let binop_sig = function
    | Ir.Iadd | Ir.Isub | Ir.Imul | Ir.Idiv | Ir.Imod | Ir.Band | Ir.Bor
    | Ir.Imin | Ir.Imax ->
      (KInt, KInt)
    | Ir.Fadd | Ir.Fsub | Ir.Fmul | Ir.Fdiv | Ir.Fmin | Ir.Fmax -> (KFloat, KFloat)
    | Ir.Icmp _ -> (KInt, KInt)
    | Ir.Fcmp _ -> (KFloat, KInt)

  let unop_sig = function
    | Ir.Ineg | Ir.Bnot | Ir.Iabs -> (KInt, KInt)
    | Ir.Fneg | Ir.Fsqrt | Ir.Fabs -> (KFloat, KFloat)
    | Ir.Itof -> (KInt, KFloat)
    | Ir.Ftoi -> (KFloat, KInt)

  let check_func ?pass (f : Ir.func) : Irverify.violation list =
    let violations = ref [] in
    let out bi msg =
      violations :=
        { Irverify.vi_func = f.Ir.name; vi_block = bi; vi_pass = pass; vi_msg = msg }
        :: !violations
    in
    let nregs = Ir.num_regs f in
    let nblocks = Array.length f.Ir.blocks in
    if nblocks = 0 then begin
      out (-1) "function has no blocks (entry block 0 is required)";
      List.rev !violations
    end
    else begin
      let reg_ok r = r >= 0 && r < nregs in
      let check_reg bi ~ctx r =
        if not (reg_ok r) then
          out bi (Printf.sprintf "%s: register r%d outside reg_ty (%d registers)" ctx r nregs)
      in
      (* Class of an operand, when it is checkable: immediates fix their
         own class; an out-of-range register has none. *)
      let operand_cls = function
        | Ir.Reg r -> if reg_ok r then Some (cls_of f.Ir.reg_ty.(r)) else None
        | Ir.Imm_int _ -> Some KInt
        | Ir.Imm_float _ -> Some KFloat
      in
      let check_operand bi ~ctx ~want op =
        (match op with Ir.Reg r -> check_reg bi ~ctx r | _ -> ());
        match operand_cls op with
        | Some k when k <> want ->
          out bi
            (Printf.sprintf "%s: operand %s has class %s but %s was expected" ctx
               (Ir.operand_to_string op) (cls_to_string k) (cls_to_string want))
        | Some _ | None -> ()
      in
      let check_def bi ~ctx ~want d =
        check_reg bi ~ctx d;
        if reg_ok d && cls_of f.Ir.reg_ty.(d) <> want then
          out bi
            (Printf.sprintf "%s: destination r%d has class %s but the result is %s" ctx
               d (cls_to_string (cls_of f.Ir.reg_ty.(d))) (cls_to_string want))
      in
      let array_decl name = List.find_opt (fun (a, _, _) -> a = name) f.Ir.arrays in
      let check_instr bi instr =
        let ctx = Ir.instr_to_string instr in
        match instr with
        | Ir.Bin (op, d, a, b) ->
          let want_in, want_out = binop_sig op in
          check_operand bi ~ctx ~want:want_in a;
          check_operand bi ~ctx ~want:want_in b;
          check_def bi ~ctx ~want:want_out d
        | Ir.Un (op, d, a) ->
          let want_in, want_out = unop_sig op in
          check_operand bi ~ctx ~want:want_in a;
          check_def bi ~ctx ~want:want_out d
        | Ir.Mov (d, a) -> (
          check_reg bi ~ctx d;
          match (operand_cls a, reg_ok d) with
          | Some k, true ->
            if cls_of f.Ir.reg_ty.(d) <> k then
              out bi
                (Printf.sprintf "%s: moving a %s value into %s register r%d" ctx
                   (cls_to_string k)
                   (cls_to_string (cls_of f.Ir.reg_ty.(d)))
                   d)
          | _ -> ())
        | Ir.Sel (d, c, a, b) ->
          check_operand bi ~ctx:(ctx ^ " condition") ~want:KInt c;
          check_reg bi ~ctx d;
          if reg_ok d then begin
            let want = cls_of f.Ir.reg_ty.(d) in
            check_operand bi ~ctx ~want a;
            check_operand bi ~ctx ~want b
          end
        | Ir.Load (d, name, index) -> (
          check_reg bi ~ctx d;
          (match array_decl name with
          | None -> out bi (Printf.sprintf "%s: undeclared array '%s'" ctx name)
          | Some (_, size, elt) ->
            (if reg_ok d && cls_of f.Ir.reg_ty.(d) <> cls_of elt then
               out bi
                 (Printf.sprintf "%s: loading %s element into %s register r%d" ctx
                    (cls_to_string (cls_of elt))
                    (cls_to_string (cls_of f.Ir.reg_ty.(d)))
                    d));
            match index with
            | Ir.Imm_int n when n < 0 || n >= size ->
              out bi
                (Printf.sprintf "%s: constant index %d out of bounds for '%s' (size %d)"
                   ctx n name size)
            | _ -> ());
          check_operand bi ~ctx:(ctx ^ " index") ~want:KInt index)
        | Ir.Store (name, index, v) -> (
          (match array_decl name with
          | None -> out bi (Printf.sprintf "%s: undeclared array '%s'" ctx name)
          | Some (_, size, elt) ->
            check_operand bi ~ctx ~want:(cls_of elt) v;
            (match index with
            | Ir.Imm_int n when n < 0 || n >= size ->
              out bi
                (Printf.sprintf "%s: constant index %d out of bounds for '%s' (size %d)"
                   ctx n name size)
            | _ -> ()));
          check_operand bi ~ctx:(ctx ^ " index") ~want:KInt index)
        | Ir.Call (d, _, args) ->
          (* Signature agreement is a section-level check; here only the
             register indices can be validated. *)
          (match d with Some d -> check_reg bi ~ctx d | None -> ());
          List.iter
            (function Ir.Reg r -> check_reg bi ~ctx r | _ -> ())
            args
        | Ir.Send (_, v) -> (
          match v with Ir.Reg r -> check_reg bi ~ctx r | _ -> ())
        | Ir.Recv (_, d) -> check_reg bi ~ctx d
      in
      Array.iteri
        (fun bi (b : Ir.block) ->
          List.iter (check_instr bi) b.Ir.instrs;
          let check_target l =
            if l < 0 || l >= nblocks then
              out bi (Printf.sprintf "terminator target L%d out of range (%d blocks)" l nblocks)
          in
          match b.Ir.term with
          | Ir.Jump l -> check_target l
          | Ir.Branch (c, t, e) ->
            check_operand bi ~ctx:"branch condition" ~want:KInt c;
            check_target t;
            check_target e
          | Ir.Ret None ->
            ()
          | Ir.Ret (Some v) -> (
            (match v with Ir.Reg r -> check_reg bi ~ctx:"ret" r | _ -> ());
            match (f.Ir.ret_ty, operand_cls v) with
            | Some ty, Some k when cls_of ty <> k ->
              out bi
                (Printf.sprintf "ret: returning a %s value from a %s function"
                   (cls_to_string k)
                   (cls_to_string (cls_of ty)))
            | _ -> ()))
        f.Ir.blocks;
      (* Def-before-use: forward may-be-uninitialized dataflow.  A
         register is maybe-uninitialized at a point if some path from the
         entry reaches the point without passing a definition.  Parameters
         are defined on entry.  Only reachable blocks participate, so dead
         code cannot produce findings.

         [Ifconv] rewrites a conditionally-assigned register as
         [d := sel c ? v : d].  The identity arm only propagates the old
         value — it is selected exactly when the original branch would not
         have assigned — so for this analysis it is neither a use of [d]
         nor an initializing definition. *)
      if !violations = [] && nregs > 0 then begin
        let uninit_uses instr =
          match instr with
          | Ir.Sel (d, c, a, b) ->
            let arms = List.filter (fun o -> o <> Ir.Reg d) [ a; b ] in
            List.filter_map
              (function Ir.Reg r -> Some r | _ -> None)
              (c :: arms)
          | _ -> Ir.uses_of instr
        in
        let uninit_def instr =
          match instr with
          | Ir.Sel (d, _, a, b) when a = Ir.Reg d || b = Ir.Reg d -> None
          | _ -> Ir.def_of instr
        in
        let reachable = Cfg.reachable f in
        let param_regs = List.map (fun (_, _, r) -> r) f.Ir.params in
        let top () =
          let m = Array.make nregs true in
          List.iter (fun r -> m.(r) <- false) param_regs;
          m
        in
        (* IN[entry] = all non-params maybe-uninit; IN[b] = union of OUT
           of reachable predecessors (start from the empty set). *)
        let in_sets =
          Array.init nblocks (fun i ->
              if i = Ir.entry_block then top () else Array.make nregs false)
        in
        let transfer src =
          let m = Array.copy src in
          fun (b : Ir.block) ->
            List.iter
              (fun instr ->
                match uninit_def instr with
                | Some d when reg_ok d -> m.(d) <- false
                | Some _ | None -> ())
              b.Ir.instrs;
            m
        in
        let changed = ref true in
        while !changed do
          changed := false;
          Array.iteri
            (fun i (b : Ir.block) ->
              if reachable.(i) then begin
                let out_set = (transfer in_sets.(i)) b in
                List.iter
                  (fun s ->
                    let dst = in_sets.(s) in
                    Array.iteri
                      (fun r v ->
                        if v && not dst.(r) then begin
                          dst.(r) <- true;
                          changed := true
                        end)
                      out_set)
                  (Ir.successors b.Ir.term)
              end)
            f.Ir.blocks
        done;
        Array.iteri
          (fun bi (b : Ir.block) ->
            if reachable.(bi) then begin
              let m = Array.copy in_sets.(bi) in
              let use ctx r =
                if reg_ok r && m.(r) then
                  out bi
                    (Printf.sprintf "%s: use of possibly-uninitialized register r%d"
                       ctx r)
              in
              List.iter
                (fun instr ->
                  List.iter (use (Ir.instr_to_string instr)) (uninit_uses instr);
                  match uninit_def instr with
                  | Some d when reg_ok d -> m.(d) <- false
                  | Some _ | None -> ())
                b.Ir.instrs;
              List.iter (use (Ir.term_to_string b.Ir.term)) (Ir.term_uses b.Ir.term)
            end)
          f.Ir.blocks
      end;
      List.rev !violations
    end

  (* Call-signature agreement across the functions of one section.  After
     lowering, builtins have become [Un]/[Bin] instructions, so every
     remaining [Call] must resolve to a function of the same section. *)
  let check_calls (sec : Ir.section) : Irverify.violation list =
    let violations = ref [] in
    let sigs = Hashtbl.create 8 in
    List.iter
      (fun (f : Ir.func) ->
        Hashtbl.replace sigs f.Ir.name
          (List.map (fun (_, ty, _) -> ty) f.Ir.params, f.Ir.ret_ty))
      sec.Ir.funcs;
    List.iter
      (fun (f : Ir.func) ->
        let out bi msg =
          violations :=
            { Irverify.vi_func = f.Ir.name; vi_block = bi; vi_pass = None; vi_msg = msg }
            :: !violations
        in
        let operand_cls = function
          | Ir.Reg r ->
            if r >= 0 && r < Ir.num_regs f then Some (cls_of f.Ir.reg_ty.(r)) else None
          | Ir.Imm_int _ -> Some KInt
          | Ir.Imm_float _ -> Some KFloat
        in
        Array.iteri
          (fun bi (b : Ir.block) ->
            List.iter
              (fun instr ->
                match instr with
                | Ir.Call (dst, callee, args) -> (
                  let ctx = Ir.instr_to_string instr in
                  match Hashtbl.find_opt sigs callee with
                  | None ->
                    out bi
                      (Printf.sprintf "%s: call to '%s', which is not a function of section '%s'"
                         ctx callee sec.Ir.sec_name)
                  | Some (param_tys, ret_ty) ->
                    if List.length param_tys <> List.length args then
                      out bi
                        (Printf.sprintf "%s: '%s' takes %d argument(s) but %d given" ctx
                           callee (List.length param_tys) (List.length args))
                    else
                      List.iteri
                        (fun i (pty, arg) ->
                          match operand_cls arg with
                          | Some k when k <> cls_of pty ->
                            out bi
                              (Printf.sprintf
                                 "%s: argument %d of '%s' has class %s but %s was expected"
                                 ctx (i + 1) callee (cls_to_string k)
                                 (cls_to_string (cls_of pty)))
                          | Some _ | None -> ())
                        (List.combine param_tys args);
                    (match (dst, ret_ty) with
                    | Some _, None ->
                      out bi
                        (Printf.sprintf "%s: '%s' returns no value but the result is used"
                           ctx callee)
                    | Some d, Some rty
                      when d >= 0 && d < Ir.num_regs f
                           && cls_of f.Ir.reg_ty.(d) <> cls_of rty ->
                      out bi
                        (Printf.sprintf
                           "%s: result register r%d has class %s but '%s' returns %s" ctx
                           d
                           (cls_to_string (cls_of f.Ir.reg_ty.(d)))
                           callee
                           (cls_to_string (cls_of rty)))
                    | _ -> ()))
                | _ -> ())
              b.Ir.instrs)
          f.Ir.blocks)
      sec.Ir.funcs;
    List.rev !violations
end
