(* Test-only oracles: the graph code Depan, Modan and Sched each carried
   before Analysis.Digraph replaced it.  The differential properties in
   test_digraph.ml check that the shared module agrees with these. *)

module IS = Set.Make (Int)

(* Tarjan as Depan, Modan and Sched each wrote it. *)
let tarjan (succs : int list array) : int array =
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

(* Depan's level loop: one pass over the edge list per node, in an
   order every edge points forward in. *)
let rank_levels n (edges : (int * int) list) (order : int list) : int list list =
  let depth = Array.make n 0 in
  List.iter
    (fun v ->
      List.iter
        (fun (a, b) -> if b = v then depth.(v) <- max depth.(v) (depth.(a) + 1))
        edges)
    order;
  let max_depth = Array.fold_left max 0 depth in
  List.init (max_depth + 1) (fun d ->
      List.filter (fun i -> depth.(i) = d) (List.init n (fun i -> i)))
  |> List.filter (fun l -> l <> [])

(* Sched's memoised task levels over a predecessor array. *)
let task_levels (deps : int list array) : int list list =
  let n = Array.length deps in
  let depth = Array.make n (-1) in
  let rec depth_of i =
    if depth.(i) >= 0 then depth.(i)
    else begin
      let d =
        List.fold_left (fun acc j -> max acc (depth_of j + 1)) 0 deps.(i)
      in
      depth.(i) <- d;
      d
    end
  in
  for i = 0 to n - 1 do
    ignore (depth_of i)
  done;
  let max_depth = Array.fold_left max 0 depth in
  List.init (max_depth + 1) (fun d ->
      List.filter (fun i -> depth.(i) = d) (List.init n (fun i -> i)))
  |> List.filter (fun l -> l <> [])

(* Depan's path test. *)
let reaches adj i j =
  let seen = Array.make (Array.length adj) false in
  let rec go v =
    v = j
    || List.exists
         (fun u ->
           if seen.(u) then false
           else begin
             seen.(u) <- true;
             go u
           end)
         adj.(v)
  in
  go i

(* The DFS pair counter of Depan.licensed_fraction and Modan.compose. *)
let dependent_pairs adj =
  let n = Array.length adj in
  let pairs = ref 0 in
  for i = 0 to n - 1 do
    let seen = Array.make n false in
    let rec go v =
      List.iter
        (fun u ->
          if not seen.(u) then begin
            seen.(u) <- true;
            incr pairs;
            go u
          end)
        adj.(v)
    in
    go i
  done;
  !pairs

(* Depan's summary closure, over integer sets instead of effect
   records: bottom-up over the SCCs, each swept until stable, with the
   sweep tally that became [si_fixpoint_sweeps]. *)
let close (succs : int list array) ~tally (base : IS.t array) : IS.t array * int =
  let n = Array.length succs in
  let scc = tarjan succs in
  let scc_members =
    Array.init
      (Array.fold_left (fun m s -> max m (s + 1)) 0 scc)
      (fun s -> List.filter (fun v -> scc.(v) = s) (List.init n Fun.id))
  in
  let sweeps = ref 0 in
  let summary = Array.copy base in
  Array.iter
    (fun members ->
      let changed = ref true in
      while !changed do
        changed := false;
        if tally then incr sweeps;
        List.iter
          (fun i ->
            let fresh =
              List.fold_left
                (fun acc j -> IS.union acc summary.(j))
                base.(i) succs.(i)
            in
            if not (IS.equal fresh summary.(i)) then begin
              summary.(i) <- fresh;
              changed := true
            end)
          members
      done)
    scc_members;
  (summary, !sweeps)

(* Modan's cross-module closure as compose swept it: every function
   round-robin until nothing moves, resolving each call on every sweep.
   [xcalls.(r)] are callee ids; an id outside [0..n-1] is a call no
   module of the link defines, which marks the caller limited and is
   reported as missing.  Returns each closure's (set, limited, aug)
   and the sorted (caller, callee) missing pairs. *)
type clo = { mutable cr : IS.t; mutable clim : bool; mutable aug : bool }

let round_robin (base : IS.t array) (lim : bool array) (xcalls : int list array) =
  let nfuncs = Array.length base in
  let clos =
    Array.init nfuncs (fun r -> { cr = base.(r); clim = lim.(r); aug = false })
  in
  let missing = Hashtbl.create 8 in
  let changed = ref true in
  while !changed do
    changed := false;
    for r = 0 to nfuncs - 1 do
      let c = clos.(r) in
      List.iter
        (fun x ->
          if x < 0 || x >= nfuncs then begin
            Hashtbl.replace missing (r, x) ();
            if not (c.clim && c.aug) then begin
              c.clim <- true;
              c.aug <- true;
              changed := true
            end
          end
          else begin
            let d = clos.(x) in
            let before = (IS.cardinal c.cr, c.clim, c.aug) in
            c.cr <- IS.union c.cr d.cr;
            c.clim <- c.clim || d.clim;
            c.aug <- true;
            if before <> (IS.cardinal c.cr, c.clim, c.aug) then changed := true
          end)
        xcalls.(r)
    done
  done;
  ( Array.map (fun c -> (c.cr, c.clim, c.aug)) clos,
    List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) missing []) )
