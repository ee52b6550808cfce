(* List scheduling of one basic block onto the wide-instruction cell.

   Greedy cycle-by-cycle: at each cycle the ready operations (all
   distance-0 predecessors scheduled and their delays elapsed) are
   placed into free functional-unit slots in decreasing critical-path
   height.  The block is padded so that every result has been written by
   the time the terminator executes (clean block boundaries).

   The graph is [Ddg.straight]: each op's nearest accesses imply every
   other hazard pair through a chain of kept edges, so the schedule and
   its attempts are those over all pairs, at a cost that follows the
   block's accesses rather than their square.

   Returns the wide code and the number of placement attempts, which
   feeds the phase-3 cost model. *)

open Midend

type schedule = {
  code : Mcode.wide array;
  issue : int array; (* issue cycle per op *)
  attempts : int; (* work units *)
}

let run (ops : Ir.instr array) : schedule =
  let n = Array.length ops in
  if n = 0 then { code = [||]; issue = [||]; attempts = 0 }
  else begin
    let g = Ddg.straight ops in
    let height = Ddg.heights g in
    let issue = Array.make n (-1) in
    (* Per op: predecessors (all distance 0 here) not yet scheduled, and the first
       cycle all the scheduled ones allow.  A predecessor placed in an
       earlier cycle is always at least one cycle back, so an op's
       earliest cycle is the maximum of issue(p) + max(delay, 1). *)
    let waiting = Array.map List.length g.preds in
    let earliest = Array.make n 0 in
    (* Unscheduled ops with no unscheduled predecessor, in any order:
       the priority order below is total. *)
    let free = ref (List.filter (fun i -> waiting.(i) = 0) (List.init n Fun.id)) in
    let by_priority a b =
      if height.(a) <> height.(b) then Int.compare height.(b) height.(a) else Int.compare a b
    in
    let scheduled = ref 0 in
    let attempts = ref 0 in
    let wides = ref [] in (* reversed *)
    let cycle = ref 0 in
    while !scheduled < n do
      (* Ready ops: unscheduled, all preds done with delays satisfied. *)
      let ready, later = List.partition (fun i -> earliest.(i) <= !cycle) !free in
      let wide = ref Mcode.empty_wide in
      let next = ref later in
      List.iter
        (fun i ->
          incr attempts;
          let fu = Machine.fu_of ops.(i) in
          if Mcode.slot !wide fu = None then begin
            wide := Mcode.with_slot !wide fu ops.(i);
            issue.(i) <- !cycle;
            incr scheduled;
            (* Released successors become ready next cycle at the
               earliest, so this cycle's ready set is unaffected. *)
            List.iter
              (fun (s, delay, _) ->
                earliest.(s) <- max earliest.(s) (!cycle + max delay 1);
                waiting.(s) <- waiting.(s) - 1;
                if waiting.(s) = 0 then next := s :: !next)
              g.succs.(i)
          end
          else next := i :: !next)
        (List.sort by_priority ready);
      free := !next;
      wides := !wide :: !wides;
      incr cycle
    done;
    (* Pad so every write has landed before the terminator. *)
    let finish =
      Array.to_list (Array.mapi (fun i op -> issue.(i) + Machine.latency op) ops)
      |> List.fold_left max !cycle
    in
    let code = Array.make finish Mcode.empty_wide in
    List.iteri
      (fun k w -> code.(!cycle - 1 - k) <- w)
      !wides;
    { code; issue; attempts = !attempts }
  end
