(* Test-only oracles: the list scheduler over the all-pairs dependence
   graph, the image verifier's all-pairs dependence check and the
   modulo scheduler's placement over a [Hashtbl] reservation table, as
   they were before the list scheduler took the nearest-access graph
   ([Warp.Ddg.straight]), the verifier scanned only a latency window and
   the reservation table became an array.  The differential properties
   in test_warp.ml check that the library's versions agree with these
   bit for bit. *)

open Midend

module Listsched = struct
  (* Every hazard pair (i < j) at distance 0, as the all-pairs builder
     produced it. *)
  let all_pairs (ops : Ir.instr array) : Warp.Ddg.t =
    let n = Array.length ops in
    let fps = Array.map Warp.Ddg.footprint ops in
    let succs = Array.make n [] and preds = Array.make n [] in
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        let delay = Warp.Ddg.hazard fps.(i) fps.(j) in
        if delay <> Warp.Ddg.independent then begin
          succs.(i) <- (j, delay, 0) :: succs.(i);
          preds.(j) <- (i, delay, 0) :: preds.(j)
        end
      done
    done;
    { Warp.Ddg.ops; succs; preds }

  let run (ops : Ir.instr array) : Warp.Listsched.schedule =
    let n = Array.length ops in
    if n = 0 then { Warp.Listsched.code = [||]; issue = [||]; attempts = 0 }
    else begin
      let g = all_pairs ops in
      let height = Warp.Ddg.heights g in
      let issue = Array.make n (-1) in
      (* Per op: predecessors (all distance 0 here) not yet scheduled, and the first
         cycle all the scheduled ones allow.  A predecessor placed in an
         earlier cycle is always at least one cycle back, so an op's
         earliest cycle is the maximum of issue(p) + max(delay, 1). *)
      let waiting = Array.map List.length g.Warp.Ddg.preds in
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
        let wide = ref Warp.Mcode.empty_wide in
        let next = ref later in
        List.iter
          (fun i ->
            incr attempts;
            let fu = Warp.Machine.fu_of ops.(i) in
            if Warp.Mcode.slot !wide fu = None then begin
              wide := Warp.Mcode.with_slot !wide fu ops.(i);
              issue.(i) <- !cycle;
              incr scheduled;
              (* Released successors become ready next cycle at the
                 earliest, so this cycle's ready set is unaffected. *)
              List.iter
                (fun (s, delay, _) ->
                  earliest.(s) <- max earliest.(s) (!cycle + max delay 1);
                  waiting.(s) <- waiting.(s) - 1;
                  if waiting.(s) = 0 then next := s :: !next)
                g.Warp.Ddg.succs.(i)
            end
            else next := i :: !next)
          (List.sort by_priority ready);
        free := !next;
        wides := !wide :: !wides;
        incr cycle
      done;
      (* Pad so every write has landed before the terminator. *)
      let finish =
        Array.to_list (Array.mapi (fun i op -> issue.(i) + Warp.Machine.latency op) ops)
        |> List.fold_left max !cycle
      in
      let code = Array.make finish Warp.Mcode.empty_wide in
      List.iteri
        (fun k w -> code.(!cycle - 1 - k) <- w)
        !wides;
      { Warp.Listsched.code; issue; attempts = !attempts }
    end
end

module Verify = struct
  (* The image verifier's dependence check over all pairs of a
     non-pipelined block, rendered as [Warp.Verify.violation_to_string]
     renders it.  Images whose only violations are dependence ones (as
     perturbed schedules of register-allocated blocks are) must get the
     same list from [Warp.Verify.image]. *)
  let check_block (f : Warp.Mcode.mfunc) bi (b : Warp.Mcode.mblock) out =
    let timed = ref [] in
    Array.iteri
      (fun cycle wide ->
        List.iter
          (fun fu ->
            match Warp.Mcode.slot wide fu with
            | Some op -> timed := (cycle, op) :: !timed
            | None -> ())
          Warp.Machine.all_fus)
      b.Warp.Mcode.code;
    let ops = Array.of_list (List.rev !timed) in
    let n = Array.length ops in
    let out msg = out (Printf.sprintf "%s/B%d: %s" f.Warp.Mcode.mf_name bi msg) in
    let fps = Array.map (fun (_, op) -> Warp.Ddg.footprint op) ops in
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        let ci, oi = ops.(i) and cj, oj = ops.(j) in
        let fwd = Warp.Ddg.hazard fps.(i) fps.(j) in
        if ci = cj then begin
          let bwd = Warp.Ddg.hazard fps.(j) fps.(i) in
          if fwd > 0 && bwd > 0 then
            out
              (Printf.sprintf "cycle %d: irreconcilable same-cycle hazard (%s | %s)" ci
                 (Ir.instr_to_string oi) (Ir.instr_to_string oj))
        end
        else if fwd <> Warp.Ddg.independent && cj < ci + fwd then
          out
            (Printf.sprintf "dependence violated: %s @%d -> %s @%d needs delay %d"
               (Ir.instr_to_string oi) ci (Ir.instr_to_string oj) cj fwd)
      done
    done

  let image (img : Warp.Mcode.image) : string list =
    let found = ref [] in
    Array.iter
      (fun (f : Warp.Mcode.mfunc) ->
        Array.iteri
          (fun bi (b : Warp.Mcode.mblock) ->
            if not b.Warp.Mcode.mb_pipelined then check_block f bi b (fun v -> found := v :: !found))
          f.Warp.Mcode.mblocks)
      img.Warp.Mcode.funcs;
    List.rev !found
end

module Modsched = struct
  (* Ejections performed, so a test can tell that its inputs reach the
     forced-placement branch. *)
  let ejections = ref 0

  let attempt (g : Warp.Ddg.t) ~ii ~height ~attempts : int array option =
    let n = Array.length g.ops in
    let sigma = Array.make n (-1) in
    let prev = Array.make n (-1) in
    let table = Hashtbl.create 16 in (* (fu, slot mod ii) -> occupant op *)
    let scheduled = Array.make n false in
    let remaining = ref n in
    let budget = ref (20 * n * (1 + (n / 16))) in
    let eject i =
      if scheduled.(i) then begin
        incr ejections;
        scheduled.(i) <- false;
        remaining := !remaining + 1;
        Hashtbl.remove table (Warp.Machine.fu_of g.ops.(i), sigma.(i) mod ii);
        sigma.(i) <- -1
      end
    in
    let place i t =
      sigma.(i) <- t;
      prev.(i) <- t;
      scheduled.(i) <- true;
      remaining := !remaining - 1;
      Hashtbl.replace table (Warp.Machine.fu_of g.ops.(i), t mod ii) i
    in
    let pick () =
      (* Highest critical-path height among unscheduled ops. *)
      let best = ref (-1) in
      for i = n - 1 downto 0 do
        if not scheduled.(i) then
          if !best < 0 || height.(i) > height.(!best) then best := i
      done;
      !best
    in
    while !remaining > 0 && !budget > 0 do
      decr budget;
      let i = pick () in
      let fu = Warp.Machine.fu_of g.ops.(i) in
      let estart =
        List.fold_left
          (fun acc (p, delay, dist) ->
            if scheduled.(p) then max acc (sigma.(p) + delay - (ii * dist)) else acc)
          0 g.preds.(i)
      in
      let ok t =
        incr attempts;
        (not (Hashtbl.mem table (fu, t mod ii)))
        && List.for_all
             (fun (s, delay, dist) ->
               (not scheduled.(s)) || sigma.(s) >= t + delay - (ii * dist))
             g.succs.(i)
      in
      let found = ref (-1) in
      let t = ref estart in
      while !found < 0 && !t < estart + ii do
        if ok !t then found := !t else incr t
      done;
      if !found >= 0 then place i !found
      else begin
        (* Force placement and eject whoever is in the way. *)
        let t = max estart (prev.(i) + 1) in
        (match Hashtbl.find_opt table (fu, t mod ii) with
        | Some occupant -> eject occupant
        | None -> ());
        List.iter
          (fun (s, delay, dist) ->
            if scheduled.(s) && sigma.(s) < t + delay - (ii * dist) then eject s)
          g.succs.(i);
        (* A forced slot may also break constraints of scheduled
           predecessors (wrapped edges can point backwards). *)
        List.iter
          (fun (p, delay, dist) ->
            if scheduled.(p) && t < sigma.(p) + delay - (ii * dist) then eject p)
          g.preds.(i);
        place i t
      end
    done;
    if !remaining = 0 then Some sigma else None

  (* Each node's edges in the order of an all-pairs scan: distance 0,
     then distance 1, each by ascending other end.  [Warp.Ddg] promises
     no order; converting once per graph, in [run], lets the property
     that compares the two schedulers witness that the order of the
     lists does not move a schedule. *)
  let scan_order (g : Warp.Ddg.t) : Warp.Ddg.t =
    let by_scan = List.sort (fun (a, _, d) (b, _, e) -> compare (d, a) (e, b)) in
    { g with succs = Array.map by_scan g.succs; preds = Array.map by_scan g.preds }

  (* [Warp.Modsched.run] with the placement above. *)
  let run (ops : Ir.instr array) : Warp.Modsched.result =
    let g = scan_order (Warp.Ddg.build ops) in
    let height = Warp.Ddg.heights g in
    let critical_path = Array.fold_left max 0 height in
    let mii, work = Warp.Modsched.mii g in
    let attempts = ref work in
    if 2 * mii > critical_path then raise (Warp.Modsched.No_schedule !attempts);
    let rec search ii =
      if ii > mii + Warp.Modsched.max_ii_slack || !attempts > 300_000 then
        raise (Warp.Modsched.No_schedule !attempts)
      else
        match attempt g ~ii ~height ~attempts with
        | Some sigma ->
          let makespan =
            Array.to_list (Array.mapi (fun i op -> sigma.(i) + Warp.Machine.latency op) ops)
            |> List.fold_left max ii
          in
          { Warp.Modsched.ii; sigma; makespan; attempts = !attempts }
        | None -> search (ii + 1)
    in
    search mii
end
