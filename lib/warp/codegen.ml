(* Phase 3: code generation.

   Pipeline per function:
     1. find software-pipelining candidates (canonical counted loops
        with constant trip counts and call-free single-block bodies);
     2. register allocation (virtual -> physical, with spilling);
     3. split blocks at calls (calls become block terminators);
     4. schedule every block: modulo scheduling + flat emission for the
        pipelined loop bodies, list scheduling elsewhere.

   The returned statistics feed the compilation cost model: [sched_work]
   counts placement attempts, [pipelined]/[ii_total] describe the
   software pipelining outcome. *)

open Midend

type compiled = {
  mfunc : Mcode.mfunc;
  sched_work : int;
  spilled : int;
  pipelined : int; (* loops software-pipelined *)
  ii_total : int; (* sum of achieved initiation intervals *)
  wide_count : int;
}

let max_pipeline_trip = 64
let max_pipeline_ops = 512

(* Counted loops eligible for software pipelining. *)
let pipeline_candidates (f : Ir.func) =
  Loops.innermost (Loops.find f)
  |> List.filter_map (fun l ->
         match Counted.recognize f l with
         | Some c -> (
           match Counted.trip c with
           | Some trip
             when trip >= 2 && trip <= max_pipeline_trip
                  && (not
                        (List.exists
                           (fun i -> match i with Ir.Call _ -> true | _ -> false)
                           f.blocks.(c.body_block).instrs))
                  && List.length f.blocks.(c.body_block).instrs <= max_pipeline_ops ->
             Some (c, trip)
           | _ -> None)
         | None -> None)

(* Split blocks so that every call ends its block: a block with calls
   becomes a chain whose links end in a trailing [Ir.Call] marker that
   [translate_term] converts into a [Tcall] terminator. *)
let split_calls (f : Ir.func) =
  let extra = ref [] in (* appended blocks, reversed; ids follow array *)
  let next = ref (Array.length f.blocks) in
  let mkcall (dst, name, args) = Ir.Call (dst, name, args) in
  let split_block (b : Ir.block) : Ir.block =
    (* Cut the instruction list at every call. *)
    let rec segments acc current = function
      | [] -> List.rev ((List.rev current, None) :: acc)
      | (Ir.Call (dst, name, args)) :: rest ->
        segments ((List.rev current, Some (dst, name, args)) :: acc) [] rest
      | instr :: rest -> segments acc (instr :: current) rest
    in
    match segments [] [] b.instrs with
    | [ (_, None) ] -> b (* no calls *)
    | (first_instrs, Some call0) :: rest ->
      let rec alloc = function
        | [ (instrs, None) ] ->
          let id = !next in
          incr next;
          extra := { Ir.instrs; term = b.term } :: !extra;
          id
        | (instrs, Some call) :: more ->
          let cont = alloc more in
          let id = !next in
          incr next;
          extra := { Ir.instrs = instrs @ [ mkcall call ]; term = Ir.Jump cont } :: !extra;
          id
        | [] | (_, None) :: _ :: _ -> assert false
      in
      let cont = alloc rest in
      { Ir.instrs = first_instrs @ [ mkcall call0 ]; term = Ir.Jump cont }
    | [] | (_, None) :: _ :: _ -> assert false
  in
  let main = Array.map split_block f.blocks in
  (* The ids handed out by [alloc] are taken immediately before each
     push, so reversing the accumulator restores id order. *)
  f.blocks <- Array.append main (Array.of_list (List.rev !extra))

let term_of = function
  | Ir.Jump l -> Mcode.Tjump l
  | Ir.Branch (c, t, e) -> Mcode.Tbranch (c, t, e)
  | Ir.Ret v -> Mcode.Tret v

(* After [split_calls], a block contains at most one call, and it is the
   last instruction; translate it to a [Tcall] terminator. *)
let translate_term (b : Ir.block) : Ir.instr array * Mcode.mterm =
  let instrs = Ir.instr_array b.instrs in
  let n = Array.length instrs in
  if n > 0 then
    match instrs.(n - 1) with
    | Ir.Call (dst, name, args) ->
      let cont = match b.term with Ir.Jump l -> l | _ -> assert false in
      (Array.sub instrs 0 (n - 1), Mcode.Tcall { callee = name; args; dst; cont })
    | _ -> (instrs, term_of b.term)
  else (instrs, term_of b.term)

let compile_function ?(pipeline = true) ?reg_limit (fin : Ir.func) : compiled =
  (* Candidates are found on virtual registers (the dead-comparison
     check needs unaliased names); block ids survive allocation and
     call-splitting (both only rewrite instructions or append blocks). *)
  let candidates = if pipeline then pipeline_candidates fin else [] in
  let alloc = Regalloc.run ?reg_limit fin in
  let f = alloc.Regalloc.func in
  split_calls f;
  let sched_work = ref 0 in
  let pipelined = ref 0 in
  let ii_total = ref 0 in
  let n = Array.length f.blocks in
  let mblocks =
    Array.make n { Mcode.code = [||]; mterm = Mcode.Tret None; mb_pipelined = false }
  in
  (* Pipelined loops: header forwards straight to the flattened body. *)
  let header_of = Hashtbl.create 4 in (* header -> (body, exit, trip) *)
  List.iter
    (fun ((c : Counted.t), trip) ->
      Hashtbl.replace header_of c.Counted.header (c.Counted.body_block, c.Counted.exit, trip))
    candidates;
  let flattened = Hashtbl.create 4 in (* body block -> (wides, exit) *)
  Hashtbl.iter
    (fun _header (bb, exit, trip) ->
      (* Candidates were checked call-free, so every instruction is a
         schedulable FU operation.  Block-local temporaries get spread
         over the registers the block does not touch, which relaxes the
         wrapped anti-dependences and lets iterations overlap. *)
      Rename_locals.run f bb;
      let ops = Ir.instr_array f.blocks.(bb).instrs in
      match Modsched.run ops with
      | result ->
        sched_work := !sched_work + result.Modsched.attempts;
        incr pipelined;
        ii_total := !ii_total + result.Modsched.ii;
        let code = Modsched.emit_flat ops result ~trip in
        Hashtbl.replace flattened bb (code, exit)
      | exception Modsched.No_schedule w -> sched_work := !sched_work + w)
    header_of;
  for i = 0 to n - 1 do
    match Hashtbl.find_opt flattened i with
    | Some (code, exit) ->
      mblocks.(i) <- { Mcode.code; mterm = Mcode.Tjump exit; mb_pipelined = true }
    | None ->
      let is_pipelined_header =
        match Hashtbl.find_opt header_of i with
        | Some (bb, _, _) -> Hashtbl.mem flattened bb
        | None -> false
      in
      if is_pipelined_header then begin
        (* Comparison dropped: the trip count is a known constant >= 1,
           so the guard always falls through on entry; the back edge has
           been replaced by the flat schedule. *)
        let bb, _, _ = Hashtbl.find header_of i in
        mblocks.(i) <- { Mcode.code = [||]; mterm = Mcode.Tjump bb; mb_pipelined = false }
      end
      else begin
        let instrs, mterm = translate_term f.blocks.(i) in
        let sched = Listsched.run instrs in
        sched_work := !sched_work + sched.Listsched.attempts;
        mblocks.(i) <- { Mcode.code = sched.Listsched.code; mterm; mb_pipelined = false }
      end
  done;
  let mfunc =
    {
      Mcode.mf_name = f.Ir.name;
      param_locs = alloc.Regalloc.param_locs;
      mf_arrays = f.Ir.arrays;
      mblocks;
    }
  in
  {
    mfunc;
    sched_work = !sched_work;
    spilled = alloc.Regalloc.spilled;
    pipelined = !pipelined;
    ii_total = !ii_total;
    wide_count = Mcode.wide_count mfunc;
  }
