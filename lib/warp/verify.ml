(* Static verifier for linked images.

   Checks the invariants the rest of the system relies on:
   - every register index is physical (within the window);
   - every occupied slot holds an operation for that functional unit;
   - no call appears inside wide code (calls are terminators);
   - terminator targets and call continuations are in range, callees
     resolve with matching arity, and argument/parameter registers are
     physical;
   - loads and stores reference declared arrays;
   - every non-pipelined block's schedule is dependence-legal: any
     hazard pair is separated by at least its delay, and same-cycle
     pairs have a delay-free direction (which the hardware's
     reads-before-writes order realizes);
   - flat-emitted software-pipelined blocks (whose wide order
     interleaves loop iterations, so per-iteration delays do not apply
     pairwise) are checked for write-back well-definedness instead. *)

type violation = {
  v_func : string;
  v_block : int;
  v_message : string;
}

let violation_to_string v =
  Printf.sprintf "%s/B%d: %s" v.v_func v.v_block v.v_message

(* [ctx] is only built when there is something to report. *)
let check_reg out ~ctx r =
  if r < 0 || r >= Machine.num_regs then
    out (Printf.sprintf "%s: register r%d outside the window" (ctx ()) r)

let check_operand out ~ctx = function
  | Midend.Ir.Reg r -> check_reg out ~ctx r
  | Midend.Ir.Imm_int _ | Midend.Ir.Imm_float _ -> ()

let check_block (image : Mcode.image) (f : Mcode.mfunc) bi
    (violations : violation list ref) =
  let out msg =
    violations := { v_func = f.Mcode.mf_name; v_block = bi; v_message = msg } :: !violations
  in
  let b = f.Mcode.mblocks.(bi) in
  let nblocks = Array.length f.Mcode.mblocks in
  let array_declared name =
    List.exists (fun (a, _, _) -> a = name) f.Mcode.mf_arrays
  in
  (* Slot and operand sanity; collect (cycle, op) in issue order. *)
  let timed = ref [] in
  Array.iteri
    (fun cycle wide ->
      List.iter
        (fun fu ->
          match Mcode.slot wide fu with
          | None -> ()
          | Some op ->
            let ctx () = Printf.sprintf "cycle %d (%s)" cycle (Machine.fu_to_string fu) in
            (match op with
            | Midend.Ir.Call _ -> out (ctx () ^ ": call inside wide code")
            | _ ->
              if Machine.fu_of op <> fu then
                out
                  (Printf.sprintf "%s: operation belongs on %s" (ctx ())
                     (Machine.fu_to_string (Machine.fu_of op)));
              (match Midend.Ir.def_of op with
              | Some d -> check_reg out ~ctx d
              | None -> ());
              List.iter (fun r -> check_reg out ~ctx r) (Midend.Ir.uses_of op);
              (match op with
              | Midend.Ir.Load (_, a, _) | Midend.Ir.Store (a, _, _) ->
                if not (array_declared a) then
                  out (Printf.sprintf "%s: undeclared array %s" (ctx ()) a)
              | _ -> ());
              timed := (cycle, op) :: !timed))
        Machine.all_fus)
    b.Mcode.code;
  (* Dependence legality.

     Non-pipelined blocks are single-instance straight-line schedules:
     every hazard pair must be separated by its delay (same-cycle pairs
     need at least one delay-free direction — the hardware's
     reads-before-writes order realizes it).  No hazard delay exceeds
     the block's longest latency, and ops are in issue order, so op i
     is compared only with the ops issued less than that many cycles
     after it: the violations, in order, are those of all pairs.

     Flat-emitted pipelined blocks interleave loop iterations, so the
     per-iteration delays do not apply pairwise; for them only
     well-definedness is checked: no two writes to one register may
     land on the same cycle. *)
  let cycles = Array.of_list (List.rev_map fst !timed) in
  let ops = Midend.Ir.instr_array (List.rev_map snd !timed) in
  let n = Array.length ops in
  if not b.Mcode.mb_pipelined then begin
    let fps = Ddg.footprints ops in
    let window = Array.fold_left (fun acc op -> max acc (Machine.latency op)) 0 ops in
    for i = 0 to n - 1 do
      let j = ref (i + 1) in
      while !j < n && cycles.(!j) < cycles.(i) + window do
        let ci, oi = (cycles.(i), ops.(i)) and cj, oj = (cycles.(!j), ops.(!j)) in
        let fwd = Ddg.hazard fps.(i) fps.(!j) in
        if ci = cj then begin
          let bwd = Ddg.hazard fps.(!j) fps.(i) in
          (* [independent] is below 0, so it passes too. *)
          if fwd > 0 && bwd > 0 then
            out
              (Printf.sprintf "cycle %d: irreconcilable same-cycle hazard (%s | %s)"
                 ci
                 (Midend.Ir.instr_to_string oi)
                 (Midend.Ir.instr_to_string oj))
        end
        else if fwd <> Ddg.independent && cj < ci + fwd then
          out
            (Printf.sprintf
               "dependence violated: %s @%d -> %s @%d needs delay %d"
               (Midend.Ir.instr_to_string oi) ci (Midend.Ir.instr_to_string oj) cj fwd);
        incr j
      done
    done
  end
  else begin
    (* Well-definedness: writes to one register land at distinct
       cycles. *)
    let landings = Hashtbl.create 32 in
    Array.iter2
      (fun cycle op ->
        match Midend.Ir.def_of op with
        | Some d ->
          let key = (d, cycle + Machine.latency op) in
          if Hashtbl.mem landings key then
            out
              (Printf.sprintf "ambiguous write-back: two writes to r%d land at %d"
                 d (cycle + Machine.latency op))
          else Hashtbl.replace landings key ()
        | None -> ())
      cycles ops
  end;
  (* Terminator sanity. *)
  let check_target l = if l < 0 || l >= nblocks then out (Printf.sprintf "branch target B%d out of range" l) in
  match b.Mcode.mterm with
  | Mcode.Tjump l -> check_target l
  | Mcode.Tbranch (c, a, b') ->
    check_operand out ~ctx:(fun () -> "branch") c;
    check_target a;
    check_target b'
  | Mcode.Tret (Some v) -> check_operand out ~ctx:(fun () -> "ret") v
  | Mcode.Tret None -> ()
  | Mcode.Tcall { callee; args; dst; cont } -> (
    check_target cont;
    List.iter (check_operand out ~ctx:(fun () -> "call argument")) args;
    (match dst with Some d -> check_reg out ~ctx:(fun () -> "call result") d | None -> ());
    match Mcode.find_func image callee with
    | None -> out (Printf.sprintf "call to unresolved %s" callee)
    | Some target ->
      if List.length target.Mcode.param_locs <> List.length args then
        out (Printf.sprintf "arity mismatch calling %s" callee))

let check_func image (f : Mcode.mfunc) violations =
  List.iter
    (fun loc ->
      if loc < 0 || loc >= Machine.num_regs then
        violations :=
          {
            v_func = f.Mcode.mf_name;
            v_block = -1;
            v_message = Printf.sprintf "parameter register r%d outside the window" loc;
          }
          :: !violations)
    f.Mcode.param_locs;
  Array.iteri (fun bi _ -> check_block image f bi violations) f.Mcode.mblocks

(* All violations in an image ([] = valid). *)
let image (img : Mcode.image) : violation list =
  let violations = ref [] in
  Array.iter (fun f -> check_func img f violations) img.Mcode.funcs;
  List.rev !violations
