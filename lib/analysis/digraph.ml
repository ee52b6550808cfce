(* The graph algorithms every dependence view shares: function DAGs in
   Depan, the module condensation and link DAG in Modan, and task
   queues in Sched.  Nodes are 0..n-1; a graph is one adjacency list
   per node. *)

(* Tarjan.  Roots are tried in ascending index and successors in list
   order, so ids depend only on the input; an SCC is numbered when it
   pops, which happens after every SCC it reaches, so an edge u -> v
   across SCCs has [scc v < scc u]. *)
let sccs (succs : int list array) : int array =
  let n = Array.length succs in
  let index = Array.make n (-1) in
  let lowlink = Array.make n 0 in
  let on_stack = Array.make n false in
  let stack = ref [] in
  let scc = Array.make n (-1) in
  let next_index = ref 0 in
  let next_scc = ref 0 in
  let rec visit v =
    index.(v) <- !next_index;
    lowlink.(v) <- !next_index;
    incr next_index;
    stack := v :: !stack;
    on_stack.(v) <- true;
    List.iter
      (fun u ->
        if index.(u) < 0 then begin
          visit u;
          lowlink.(v) <- min lowlink.(v) lowlink.(u)
        end
        else if on_stack.(u) then lowlink.(v) <- min lowlink.(v) index.(u))
      succs.(v);
    if lowlink.(v) = index.(v) then begin
      let rec pop () =
        match !stack with
        | [] -> ()
        | u :: rest ->
          stack := rest;
          on_stack.(u) <- false;
          scc.(u) <- !next_scc;
          if u <> v then pop ()
      in
      pop ();
      incr next_scc
    end
  in
  for v = 0 to n - 1 do
    if index.(v) < 0 then visit v
  done;
  scc

let members (scc : int array) : int list array =
  let table = Array.make (Array.fold_left (fun m s -> max m (s + 1)) 0 scc) [] in
  for v = Array.length scc - 1 downto 0 do
    table.(scc.(v)) <- v :: table.(scc.(v))
  done;
  table

(* Longest-path depth by memoised recursion.  A node is provisionally
   at depth 0 while its predecessors are explored, so a cycle ends the
   recursion instead of looping (the callers' graphs are acyclic). *)
let levels (preds : int list array) : int list list =
  let n = Array.length preds in
  let depth = Array.make n (-1) in
  let rec depth_of v =
    if depth.(v) < 0 then begin
      depth.(v) <- 0;
      depth.(v) <-
        List.fold_left (fun acc u -> max acc (depth_of u + 1)) 0 preds.(v)
    end;
    depth.(v)
  in
  let table = Array.make n [] in
  for v = n - 1 downto 0 do
    let d = depth_of v in
    table.(d) <- v :: table.(d)
  done;
  List.filter (fun l -> l <> []) (Array.to_list table)

(* Mark with [stamp] every node reachable from [v] that is not marked
   yet, and count them. *)
let mark (succs : int list array) (seen : int array) stamp v =
  let count = ref 0 in
  let rec go v =
    if seen.(v) <> stamp then begin
      seen.(v) <- stamp;
      incr count;
      List.iter go succs.(v)
    end
  in
  go v;
  !count

let reach succs v =
  let seen = Array.make (Array.length succs) (-1) in
  ignore (mark succs seen 0 v);
  Array.map (fun s -> s = 0) seen

let dependent_pairs succs =
  let seen = Array.make (Array.length succs) (-1) in
  let pairs = ref 0 in
  Array.iteri (fun v _ -> pairs := !pairs + mark succs seen v v - 1) succs;
  !pairs

(* Edges only point forward in rank, so each dependent unordered pair
   is one ordered reachable pair. *)
let licensed_fraction succs =
  let n = Array.length succs in
  if n < 2 then 1.0
  else
    1.0
    -. float_of_int (dependent_pairs succs) /. float_of_int (n * (n - 1) / 2)

(* Bottom-up summaries: SCCs in id order, so callees are final before
   any caller reads them; each SCC is swept in ascending member order,
   updating in place, until one sweep changes nothing. *)
let solve ?widen succs ~equal ~init ~step =
  let value = Array.init (Array.length succs) init in
  let sweeps = ref 0 in
  let update k moved i =
    let fresh = step (Array.get value) i in
    let fresh =
      match widen with
      | Some (limit, w) when k > limit -> w value.(i) fresh
      | _ -> fresh
    in
    let stable = equal fresh value.(i) in
    if not stable then value.(i) <- fresh;
    moved || not stable
  in
  let rec sweep k members =
    incr sweeps;
    if List.fold_left (update k) false members then sweep (k + 1) members
  in
  let solve_scc = function
    | [ i ] when not (List.mem i succs.(i)) ->
      (* Every node it reads is final, so one step is too.  The tally
         still counts the sweep that would confirm a moved value, so it
         stays the number of sweeps until one changes nothing. *)
      incr sweeps;
      if update 1 false i then incr sweeps
    | members -> sweep 1 members
  in
  Array.iter solve_scc (members (sccs succs));
  (value, !sweeps)

(* Stable Kahn: repeatedly emit the smallest-index ready node.  A
   residual cycle is broken at its smallest unemitted node. *)
let stable_topo (preds : int list array) : int list =
  let n = Array.length preds in
  let indeg = Array.map List.length preds in
  let succs = Array.make n [] in
  Array.iteri (fun v ps -> List.iter (fun u -> succs.(u) <- v :: succs.(u)) ps) preds;
  let taken = Array.make n false in
  let out = ref [] in
  for _ = 1 to n do
    let next = ref (-1) in
    for i = n - 1 downto 0 do
      if (not taken.(i)) && indeg.(i) = 0 then next := i
    done;
    if !next < 0 then
      for i = n - 1 downto 0 do
        if not taken.(i) then next := i
      done;
    taken.(!next) <- true;
    List.iter (fun j -> indeg.(j) <- indeg.(j) - 1) succs.(!next);
    out := !next :: !out
  done;
  List.rev !out
