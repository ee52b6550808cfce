(* Iterative modulo scheduling — the software-pipelining heart of
   phase 3 (Rau's IMS, simplified: no backtracking; on failure the
   initiation interval is increased).

   The operations of a single-block loop body are placed at times σ(op)
   such that for every dependence edge (a → b, delay, dist):

       σ(b) ≥ σ(a) + delay − II·dist

   and no functional unit is used twice at the same time modulo II.
   Because registers are physical (allocation happens before
   scheduling), the wrap-around anti-dependences automatically bound
   every lifetime by II — no modulo variable expansion is needed and the
   kernel is valid with the original register names.

   The overlapped schedule for a loop with a compile-time-constant trip
   count [n] is emitted flat: op of iteration j at σ(op) + II·j; total
   length (n−1)·II + makespan.  Flatness is resource-legal because two
   instances on one unit at the same time would need σ₁ ≡ σ₂ (mod II),
   which the modulo reservation table excludes. *)

open Midend

type result = {
  ii : int;
  sigma : int array;
  makespan : int;
  attempts : int; (* placement trials: phase-3 work units *)
}

let res_mii (ops : Ir.instr array) : int =
  let counts = Hashtbl.create 5 in
  Array.iter
    (fun op ->
      let fu = Machine.fu_of op in
      Hashtbl.replace counts fu (1 + Option.value ~default:0 (Hashtbl.find_opt counts fu)))
    ops;
  Hashtbl.fold (fun _ c acc -> max c acc) counts 1

(* Lower bound from self-edges (a → a, delay, 1): II ≥ delay. *)
let self_rec_mii (g : Ddg.t) : int =
  let best = ref 1 in
  Array.iteri
    (fun i succs ->
      List.iter (fun (j, delay, dist) -> if j = i && dist = 1 then best := max !best delay) succs)
    g.succs;
  !best

(* Does the parent graph (each node to the predecessor that last
   relaxed it, or -1) have a cycle?  Each walk towards a root marks the
   unmarked nodes it passes with its start; meeting its own mark again
   closes a cycle. *)
let parent_cycle parent =
  let n = Array.length parent in
  let mark = Array.make n (-1) in
  let cycle = ref false in
  for start = 0 to n - 1 do
    let v = ref start in
    while !v >= 0 && mark.(!v) < 0 do
      mark.(!v) <- start;
      v := parent.(!v)
    done;
    if !v >= 0 && mark.(!v) = start then cycle := true
  done;
  !cycle

(* Is [ii] consistent with every dependence cycle?  With edge weights
   delay − II·dist, a schedule exists iff the graph has no positive
   cycle.  Bellman–Ford decides that: the longest distances settle
   within n + 1 rounds iff there is none.  Each strict improvement
   records the edge's source as the node's parent, and a cycle in that
   parent graph always has positive weight (Cherkassky–Goldberg), so
   the test stops at the first round that leaves one: the answer is
   the full run's, usually after a few rounds instead of n + 1.  Each
   round relaxes [succs] by ascending source; distance-0 edges go
   forward, so one round settles every distance-0 chain.  This exact
   recurrence test lets the search skip infeasible IIs without
   running the expensive placement loop. *)
let feasible (g : Ddg.t) ~ii : bool =
  let n = Array.length g.ops in
  let longest = Array.make n 0 in
  let parent = Array.make n (-1) in
  let changed = ref true and cycle = ref false in
  let rounds = ref 0 in
  while !changed && (not !cycle) && !rounds <= n do
    changed := false;
    incr rounds;
    for i = 0 to n - 1 do
      List.iter
        (fun (j, delay, dist) ->
          let via = longest.(i) + delay - (ii * dist) in
          if via > longest.(j) then begin
            longest.(j) <- via;
            parent.(j) <- i;
            changed := true
          end)
        g.succs.(i)
    done;
    if !changed then cycle := parent_cycle parent
  done;
  not !changed

(* Row of each unit in the modulo reservation table. *)
let fu_index : Machine.fu -> int = function
  | ALU -> 0
  | FALU -> 1
  | FMUL -> 2
  | MEM -> 3
  | QIO -> 4

(* The first slot the scheduled predecessors allow, at least [acc]. *)
let rec earliest ~ii scheduled sigma acc = function
  | [] -> acc
  | (p, delay, dist) :: rest ->
    let acc =
      if scheduled.(p) then Int.max acc (sigma.(p) + delay - (ii * dist)) else acc
    in
    earliest ~ii scheduled sigma acc rest

(* Does every scheduled successor still issue late enough for an op
   placed at [t]? *)
let rec succs_see ~ii scheduled sigma t = function
  | [] -> true
  | (s, delay, dist) :: rest ->
    ((not scheduled.(s)) || sigma.(s) >= t + delay - (ii * dist))
    && succs_see ~ii scheduled sigma t rest

(* One scheduling attempt at a given II: iterative modulo scheduling
   with ejection (Rau).  When no slot in the window [estart, estart+II)
   is conflict-free, the op is force-placed and the conflicting ops —
   the occupant of its reservation slot and any scheduled successors
   whose dependence the placement violates — are ejected back onto the
   worklist.  A per-op "no earlier than last time + 1" rule plus a
   global budget guarantee termination. *)
let attempt (g : Ddg.t) ~ii ~height ~attempts : int array option =
  let n = Array.length g.ops in
  let sigma = Array.make n (-1) in
  let prev = Array.make n (-1) in
  (* The modulo reservation table: the occupant op of each
     (fu, slot mod ii), at fu_index · ii + slot, or -1 when free. *)
  let row = Array.map (fun op -> fu_index (Machine.fu_of op) * ii) g.ops in
  let table = Array.make (List.length Machine.all_fus * ii) (-1) in
  let cell i t = row.(i) + (t mod ii) in
  let scheduled = Array.make n false in
  let remaining = ref n in
  let budget = ref (20 * n * (1 + (n / 16))) in
  let eject i =
    if scheduled.(i) then begin
      scheduled.(i) <- false;
      remaining := !remaining + 1;
      table.(cell i sigma.(i)) <- -1;
      sigma.(i) <- -1
    end
  in
  let place i t =
    sigma.(i) <- t;
    prev.(i) <- t;
    scheduled.(i) <- true;
    remaining := !remaining - 1;
    table.(cell i t) <- i
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
    let estart = earliest ~ii scheduled sigma 0 g.preds.(i) in
    (* Each slot tried is one attempt. *)
    let found = ref (-1) in
    let t = ref estart in
    while !found < 0 && !t < estart + ii do
      incr attempts;
      if table.(cell i !t) < 0 && succs_see ~ii scheduled sigma !t g.succs.(i) then
        found := !t
      else incr t
    done;
    if !found >= 0 then place i !found
    else begin
      (* Force placement and eject whoever is in the way. *)
      let t = max estart (prev.(i) + 1) in
      let occupant = table.(cell i t) in
      if occupant >= 0 then eject occupant;
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

let max_ii_slack = 32

(* No schedule found; the payload is the work spent trying (it still
   counts as phase-3 compilation time). *)
exception No_schedule of int

(* Exact MII: the least II from the resource/self-edge lower bound up
   to [max_ii_slack] above it that passes the recurrence test.  Edge
   weights delay − II·dist only fall as II grows, so feasibility is
   monotone in II: the top of the range is tested first and the rest
   is bisected.  The work charged is what a linear search upwards from
   the lower bound would spend, (nedges/8 + 1) per II tried. *)
let mii (g : Ddg.t) : int * int =
  let nedges = Array.fold_left (fun acc succs -> acc + List.length succs) 0 g.succs in
  let per_test = (nedges / 8) + 1 in
  let lower = max (res_mii g.ops) (self_rec_mii g) in
  let top = lower + max_ii_slack in
  if not (feasible g ~ii:top) then raise (No_schedule ((max_ii_slack + 1) * per_test));
  (* Invariant: [hi] is feasible; everything below [lo] is not. *)
  let rec bisect lo hi =
    if lo >= hi then hi
    else
      let mid = (lo + hi) / 2 in
      if feasible g ~ii:mid then bisect lo mid else bisect (mid + 1) hi
  in
  let ii = bisect lower top in
  (ii, (ii - lower + 1) * per_test)

(* Modulo-schedule [ops]; raises [No_schedule] if no II up to
   MII + slack succeeds (callers fall back to list scheduling).

   When the resource bound already reaches the critical path of one
   iteration, overlapping iterations cannot improve throughput over
   list scheduling, so the search is skipped — wide loop bodies
   saturate the functional units on their own. *)
let run (ops : Ir.instr array) : result =
  let g = Ddg.build ops in
  let height = Ddg.heights g in
  let critical_path = Array.fold_left max 0 height in
  let mii, work = mii g in
  let attempts = ref work in
  (* Overlap can shrink the per-iteration time from the critical path
     towards MII; if less than half the path can be recovered the
     (expensive) search is not worth running — a profitability cut-off
     in the spirit of the production compiler's heuristics. *)
  if 2 * mii > critical_path then raise (No_schedule !attempts);
  (* Bound the total search effort: scheduling is allowed to be the
     expensive phase, not an unbounded one. *)
  let max_total_attempts = 300_000 in
  let rec search ii =
    if ii > mii + max_ii_slack || !attempts > max_total_attempts then
      raise (No_schedule !attempts)
    else
      match attempt g ~ii ~height ~attempts with
      | Some sigma ->
        let makespan =
          Array.to_list (Array.mapi (fun i op -> sigma.(i) + Machine.latency op) ops)
          |> List.fold_left max ii
        in
        { ii; sigma; makespan; attempts = !attempts }
      | None -> search (ii + 1)
  in
  search mii

(* Flat emission: the full overlapped schedule for [trip] iterations. *)
let emit_flat (ops : Ir.instr array) (r : result) ~trip : Mcode.wide array =
  assert (trip >= 1);
  let total = ((trip - 1) * r.ii) + r.makespan in
  let code = Array.make total Mcode.empty_wide in
  for j = 0 to trip - 1 do
    Array.iteri
      (fun i op ->
        let t = r.sigma.(i) + (r.ii * j) in
        let fu = Machine.fu_of op in
        assert (Mcode.slot code.(t) fu = None);
        code.(t) <- Mcode.with_slot code.(t) fu op)
      ops
  done;
  code
