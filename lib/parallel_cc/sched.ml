(* Pluggable dispatch scheduling (cf. section 4.3 and ComPar).

   The paper's host distributes tasks first come, first served; section
   4.2.3 measures why that leaves speedup on the table: per-task
   overhead (core-image download, Lisp init, re-parse, write-back) is
   up to 70 % of elapsed time for tiny functions, and the longest
   function bounds the critical path.  This module turns the cost
   model's phase-2+3 estimate into a placement policy applied to a
   [Plan.t] before the section masters fork:

   - [Fcfs]      the paper's behaviour.  The plan is returned
                 physically unchanged, so the event schedule (and
                 timings) stay bit-identical.
   - [Lpt]       longest processing time first: each section's task
                 queue is stably sorted by descending cost estimate, so
                 the longest function starts first and stops dominating
                 the tail.
   - [Lpt_batch] LPT after tiny-function batching: tasks whose
                 estimated phase-2+3 cost falls below a threshold are
                 clustered into one dispatch unit per workstation
                 (first-fit decreasing into bins of the threshold's
                 capacity), amortizing the claim/transfer/write-back
                 overhead over several functions.
   - [Dag], [Dag_lpt], [Dag_spec] the same orders over the phase-1
                 dependence DAG, with [Parrun] gating dispatch on all
                 edges ([Dag], [Dag_lpt]) or on the proven ones only
                 ([Dag_spec]); see [schedule] below.

   Everything here is a pure plan-to-plan function: fault supervision,
   exactly-once write-back and tracing in [Parrun] see the scheduled
   plan and work unchanged. *)

type policy = Fcfs | Lpt | Lpt_batch | Dag | Dag_lpt | Dag_spec
type gating = Ungated | All | Proven

let policies = [ Fcfs; Lpt; Lpt_batch; Dag; Dag_lpt; Dag_spec ]

(* What each named policy switches on: which dependence edges gate
   dispatch, LPT ordering, and tiny-task batching.  Kept private so the
   six named policies stay the only reachable configurations. *)
type traits = { gating : gating; lpt : bool; batch : bool }

let traits = function
  | Fcfs -> { gating = Ungated; lpt = false; batch = false }
  | Lpt -> { gating = Ungated; lpt = true; batch = false }
  | Lpt_batch -> { gating = Ungated; lpt = true; batch = true }
  | Dag -> { gating = All; lpt = false; batch = false }
  | Dag_lpt -> { gating = All; lpt = true; batch = true }
  | Dag_spec -> { gating = Proven; lpt = true; batch = true }

let gating p = (traits p).gating

let gates gating (c : Plan.edge_class) =
  match gating with Ungated -> false | All -> true | Proven -> c = Plan.Proven

let policy_name = function
  | Fcfs -> "fcfs"
  | Lpt -> "lpt"
  | Lpt_batch -> "lpt+batch"
  | Dag -> "dag"
  | Dag_lpt -> "dag+lpt"
  | Dag_spec -> "dag+spec"

(* The scheduler's cost signal: estimated phases-2+3 seconds of one
   task (summed in function order, so bit-stable across plans).  With
   [static] the measured work units are replaced by the abstract
   interpretation's statement-execution bound, priced by the same
   model — the signal available before any function has compiled. *)
let task_cost ?(static = false) (cost : Driver.Cost.model) (t : Plan.task) =
  if static then Driver.Cost.static_task_seconds cost t.Plan.t_funcs
  else Driver.Cost.task_phase23_seconds cost t.Plan.t_funcs

(* Descending cost with an explicit total tie-break: equal-cost tasks
   (e.g. the S_n series' identical functions) are ordered by their
   original queue position — which within a section is the source
   order of their head functions — so LPT on a uniform plan is the
   identity permutation and the result never depends on the sort
   algorithm's stability. *)
let order_lpt costf tasks =
  List.mapi (fun i t -> (i, t)) tasks
  |> List.sort (fun (ia, a) (ib, b) ->
         match compare (costf b) (costf a) with
         | 0 -> compare ia ib
         | c -> c)
  |> List.map snd

(* First-fit decreasing of the tiny tasks into bins of [threshold]
   estimated seconds, at most [max_bins] bins (one dispatch unit per
   pool workstation); once the bin budget is reached, remaining tasks
   spill into the least-loaded bin (LPT packing).  Tasks at or above
   the threshold pass through untouched. *)
let batch_tiny costf ~threshold ~max_bins (tasks : Plan.task list) :
    Plan.task list =
  let tiny, big = List.partition (fun t -> costf t < threshold) tasks in
  match tiny with
  | [] | [ _ ] -> tasks (* nothing to merge *)
  | _ ->
    let max_bins = max 1 max_bins in
    let sorted =
      List.stable_sort (fun a b -> compare (costf b) (costf a)) tiny
    in
    (* bins: (load, tasks in reverse arrival order) *)
    let bins : (float * Plan.task list) array ref = ref [||] in
    let place t =
      let c = costf t in
      let n = Array.length !bins in
      let fits = ref (-1) in
      Array.iteri
        (fun i (load, _) ->
          if !fits < 0 && load +. c <= threshold then fits := i)
        !bins;
      match !fits with
      | i when i >= 0 ->
        let load, ts = !bins.(i) in
        !bins.(i) <- (load +. c, t :: ts)
      | _ when n < max_bins -> bins := Array.append !bins [| (c, [ t ]) |]
      | _ ->
        (* budget reached: least-loaded bin takes the spill *)
        let least = ref 0 in
        Array.iteri
          (fun i (load, _) -> if load < fst !bins.(!least) then least := i)
          !bins;
        let load, ts = !bins.(!least) in
        !bins.(!least) <- (load +. c, t :: ts)
    in
    List.iter place sorted;
    let merged =
      Array.to_list !bins
      |> List.map (fun (_, ts) ->
             match List.rev ts with
             | [] -> assert false
             | first :: _ as ts ->
               {
                 Plan.t_section = first.Plan.t_section;
                 t_funcs = List.concat_map (fun t -> t.Plan.t_funcs) ts;
               })
    in
    big @ merged

(* --- DAG-aware dispatch --- *)

(* Task-level dependence adjacency for one section's task queue,
   projected from the plan's function-level edges: task B depends on
   task A when some function of A must compile before some function of
   B.  Edges between functions of the same task vanish (a function
   master compiles its functions sequentially, in order). *)
let task_deps (edges : (string * string) list) (tasks : Plan.task list) :
    int list array =
  let arr = Array.of_list tasks in
  let owner = Hashtbl.create 32 in
  Array.iteri
    (fun i (t : Plan.task) ->
      List.iter
        (fun (fw : Driver.Compile.func_work) ->
          Hashtbl.replace owner fw.Driver.Compile.fw_name i)
        t.Plan.t_funcs)
    arr;
  let deps = Array.make (Array.length arr) [] in
  List.iter
    (fun (a, b) ->
      match (Hashtbl.find_opt owner a, Hashtbl.find_opt owner b) with
      | Some i, Some j when i <> j -> deps.(j) <- i :: deps.(j)
      | _ -> ())
    edges;
  Array.map (List.sort_uniq compare) deps

(* Order a task's functions so every function-level edge inside the
   task points forward.  Needed after merging: batching can put a
   dependent pair into one dispatch unit, and the unit must compile
   them dependence-first. *)
let order_funcs_by_deps (edges : (string * string) list)
    (funcs : Driver.Compile.func_work list) : Driver.Compile.func_work list =
  let arr = Array.of_list funcs in
  let index = Hashtbl.create 16 in
  Array.iteri
    (fun i fw -> Hashtbl.replace index fw.Driver.Compile.fw_name i)
    arr;
  let preds = Array.make (Array.length arr) [] in
  List.iter
    (fun (a, b) ->
      match (Hashtbl.find_opt index a, Hashtbl.find_opt index b) with
      | Some i, Some j when i <> j -> preds.(j) <- i :: preds.(j)
      | _ -> ())
    edges;
  List.map (Array.get arr) (Analysis.Digraph.stable_topo preds)

(* Merge task-level dependence cycles into single dispatch units.  A
   grouped plan can pack coupled functions apart (f with h, g alone,
   edges f->g->h), creating a cycle between tasks even though the
   function-level graph is a DAG; merging the strongly connected tasks
   (functions concatenated in task order, then re-ordered by the
   function-level edges) restores an acyclic task graph. *)
let merge_task_cycles (edges : (string * string) list)
    (deps : int list array) (tasks : Plan.task list) : Plan.task list =
  let arr = Array.of_list tasks in
  let n = Array.length arr in
  (* successor lists from the dependence lists *)
  let succs = Array.make n [] in
  Array.iteri (fun j ds -> List.iter (fun i -> succs.(i) <- j :: succs.(i)) ds) deps;
  Array.iteri (fun i l -> succs.(i) <- List.sort_uniq compare l) succs;
  let scc = Analysis.Digraph.sccs succs in
  let members = Analysis.Digraph.members scc in
  (* Emit one task per SCC, at the position of its first member. *)
  List.concat
    (List.init n (fun i ->
         match members.(scc.(i)) with
         | [ j ] -> [ arr.(j) ]
         | first :: _ as ms when first = i ->
           let funcs = List.concat_map (fun j -> arr.(j).Plan.t_funcs) ms in
           [
             {
               Plan.t_section = arr.(i).Plan.t_section;
               t_funcs = order_funcs_by_deps edges funcs;
             };
           ]
         | _ -> []))

(* Stable topological FCFS over a task graph: on an edge-free section
   this is the identity permutation, so the plan — and with it the
   whole event schedule — matches FCFS bit for bit. *)
let topo_fcfs (deps : int list array) (tasks : Plan.task list) :
    Plan.task list =
  let arr = Array.of_list tasks in
  List.map (Array.get arr) (Analysis.Digraph.stable_topo deps)

(* Every policy but [Fcfs] runs one pipeline per section, switched by
   its traits:
   - merge task-level cycles over the gating edges (none when
     ungated);
   - level the task graph, over the proven edges only under [Proven]:
     speculative successors then land in their predecessors' level and
     dispatch immediately, while cycles are still merged over the FULL
     edge set — scheduling past a speculative edge whose reverse is
     proven would otherwise deadlock the commit protocol (the attempt
     awaits a predecessor that gates on the attempt's own completion);
   - without LPT, dispatch in stable topological order; with it, batch
     tiny tasks (threshold [neg_infinity] when the policy does not
     batch) and LPT-order them within each antichain level, then put
     each unit's functions in dependence order;
   - under [Proven], merge the task cycles batching closed over the
     non-cold edges.
   An ungated section is one level with no edges, so LPT and batching
   act on the whole queue. *)
let schedule ?(static = false) ~policy ~(cost : Driver.Cost.model) ~threshold
    ~stations (plan : Plan.t) : Plan.t =
  match policy with
  | Fcfs -> plan (* physically unchanged: timings stay bit-identical *)
  | _ ->
    let { gating; lpt; batch } = traits policy in
    let costf = task_cost ~static cost in
    let threshold = if batch then threshold else neg_infinity in
    (* One dispatch unit per pool station at most ([stations] counts
       the master's own machine, which carries no function masters). *)
    let max_bins = max 1 (stations - 1) in
    let section_schedule section tasks =
      let edges =
        if gating = Ungated then [] else Plan.section_edges plan section
      in
      let tasks = merge_task_cycles edges (task_deps edges tasks) tasks in
      let deps =
        task_deps (Plan.section_edges ~keep:(gates gating) plan section) tasks
      in
      if not lpt then topo_fcfs deps tasks
      else
        let arr = Array.of_list tasks in
        let batched =
          Analysis.Digraph.levels deps
          |> List.concat_map (fun level ->
                 let level_tasks = List.map (Array.get arr) level in
                 order_lpt costf
                   (batch_tiny costf ~threshold ~max_bins level_tasks)
                 |> List.map (fun (t : Plan.task) ->
                        {
                          t with
                          Plan.t_funcs = order_funcs_by_deps edges t.Plan.t_funcs;
                        }))
        in
        (* Under [Proven] a level is an antichain of the proven edges
           only, so batching can close a task cycle over the others;
           staged attempts would await each other round a cycle of
           non-cold edges, so merge those again. *)
        let waits c = gating = Proven && c <> Plan.Cold in
        merge_task_cycles edges
          (task_deps (Plan.section_edges ~keep:waits plan section) batched)
          batched
    in
    {
      plan with
      Plan.tasks_per_section =
        List.map
          (fun (s, tasks) -> (s, section_schedule s tasks))
          plan.Plan.tasks_per_section;
    }
