(* Partitioning and load balancing.

   The master's setup parse yields the module structure; tasks are the
   per-function phase-2/3 jobs.  Two placement policies:

   - [one_per_station]: the paper's default — first come, first served,
     one function master per workstation;
   - [grouped ~processors]: the section-4.3 heuristic — estimate each
     function's compile time from lines of code and loop nesting, then
     pack functions onto the available processors (longest processing
     time first), so that several small functions share one function
     master. *)

type task = {
  t_section : string;
  t_funcs : Driver.Compile.func_work list; (* compiled together, in order *)
}

(* A task is named by its head function: both constructors and
   [Sched.schedule] build only non-empty tasks. *)
let label (t : task) = (List.hd t.t_funcs).Driver.Compile.fw_name

type edge_class = Proven | Hot | Cold

type t = {
  tasks_per_section : (string * task list) list;
  edges : (string * (string * string * edge_class) list) list;
  (* per section: the analyzer's function-level dependence edges,
     (compile-first, compile-second, class) by name, in analysis
     order.  FCFS/LPT policies ignore them; the DAG-aware policies in
     [Sched] order and gate by them. *)
}

(* The one place an analyzer edge gets its class: structural edges are
   proven, data-only ones speculative, and a speculative edge is hot
   when the uncapped summaries really couple its endpoints. *)
let classify (e : Analysis.Depan.edge) =
  match Analysis.Depan.edge_confidence e with
  | Analysis.Depan.Proven -> Proven
  | Analysis.Depan.Speculative -> if e.Analysis.Depan.e_hot then Hot else Cold

(* The dependence edges come straight from the phase-1 analysis the
   driver already ran; deriving them here keeps every plan carrying its
   DAG without a separate wiring step. *)
let edges_of (analysis : Analysis.Depan.t) =
  List.map
    (fun (si : Analysis.Depan.section_info) ->
      let name i = si.si_funcs.(i).Analysis.Depan.fi_name in
      ( si.si_name,
        List.map
          (fun (e : Analysis.Depan.edge) -> (name e.e_from, name e.e_to, classify e))
          si.si_edges ))
    analysis.Analysis.Depan.dp_sections

let section_edges ?(keep = fun _ -> true) (plan : t) section =
  match List.assoc_opt section plan.edges with
  | None -> []
  | Some es -> List.filter_map (fun (a, b, c) -> if keep c then Some (a, b) else None) es

(* The paper's proxy for compile time: "a combination of lines of code
   and loop nesting". *)
let estimate (fw : Driver.Compile.func_work) : float =
  let loc = float_of_int fw.Driver.Compile.fw_loc in
  (* Nesting is reflected in the optimizer work the function generates;
     the scheduler proxy only sees static structure, so weight lines by
     a density factor derived from instructions per line. *)
  let density =
    float_of_int fw.Driver.Compile.fw_ir_instrs /. float_of_int (max 1 fw.Driver.Compile.fw_loc)
  in
  loc *. (1.0 +. (0.15 *. density))

let one_per_station (mw : Driver.Compile.module_work) : t =
  {
    tasks_per_section =
      List.map
        (fun (sw : Driver.Compile.section_work) ->
          ( sw.Driver.Compile.sw_name,
            List.map
              (fun fw -> { t_section = sw.Driver.Compile.sw_name; t_funcs = [ fw ] })
              sw.Driver.Compile.sw_funcs ))
        mw.Driver.Compile.mw_sections;
    edges = edges_of mw.Driver.Compile.mw_analysis;
  }

(* LPT bin packing of all functions of one section onto [bins]
   processors. *)
let pack_section (sw : Driver.Compile.section_work) ~bins : task list =
  let sorted =
    List.sort
      (fun a b -> compare (estimate b) (estimate a))
      sw.Driver.Compile.sw_funcs
  in
  let loads = Array.make (max 1 bins) 0.0 in
  let contents = Array.make (max 1 bins) [] in
  List.iter
    (fun fw ->
      let best = ref 0 in
      Array.iteri (fun i l -> if l < loads.(!best) then best := i) loads;
      loads.(!best) <- loads.(!best) +. estimate fw;
      contents.(!best) <- fw :: contents.(!best))
    sorted;
  Array.to_list contents
  |> List.filter_map (fun funcs ->
         match funcs with
         | [] -> None
         | _ ->
           Some { t_section = sw.Driver.Compile.sw_name; t_funcs = List.rev funcs })

(* Distribute [processors] function masters over the sections in
   proportion to their estimated work (at least one each). *)
let grouped (mw : Driver.Compile.module_work) ~processors : t =
  let sections = mw.Driver.Compile.mw_sections in
  let weights =
    List.map
      (fun (sw : Driver.Compile.section_work) ->
        List.fold_left (fun acc fw -> acc +. estimate fw) 0.0 sw.Driver.Compile.sw_funcs)
      sections
  in
  let total = List.fold_left ( +. ) 0.0 weights in
  let n_sections = List.length sections in
  let bins_per_section =
    List.map
      (fun w ->
        let share = w /. total *. float_of_int processors in
        max 1 (int_of_float (Float.round share)))
      weights
  in
  (* Trim so the total does not exceed the processor count (keep at
     least one per section). *)
  let rec trim bins =
    let sum = List.fold_left ( + ) 0 bins in
    if sum <= max processors n_sections then bins
    else
      (* shrink the largest allocation *)
      let largest = List.fold_left max 1 bins in
      let shrunk = ref false in
      let bins =
        List.map
          (fun b ->
            if (not !shrunk) && b = largest && b > 1 then begin
              shrunk := true;
              b - 1
            end
            else b)
          bins
      in
      if !shrunk then trim bins else bins
  in
  let bins_per_section = trim bins_per_section in
  {
    tasks_per_section =
      List.map2
        (fun (sw : Driver.Compile.section_work) bins ->
          (sw.Driver.Compile.sw_name, pack_section sw ~bins))
        sections bins_per_section;
    edges = edges_of mw.Driver.Compile.mw_analysis;
  }

let task_count (plan : t) =
  List.fold_left (fun acc (_, tasks) -> acc + List.length tasks) 0 plan.tasks_per_section

let task_loc (task : task) =
  List.fold_left (fun acc fw -> acc + fw.Driver.Compile.fw_loc) 0 task.t_funcs

(* The plan for [processors] function-master stations, with that
   station count: [grouped] onto them, or one per function when
   absent. *)
let for_processors ?processors (mw : Driver.Compile.module_work) : t * int =
  match processors with
  | None ->
    let plan = one_per_station mw in
    (plan, task_count plan)
  | Some p -> (grouped mw ~processors:p, p)
