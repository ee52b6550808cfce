(* Critical-path profiling over a finished trace.

   The DES gives every span exact timestamps and exact causality:
   causally adjacent events share the very same float (a store's disk
   operation starts at the transfer's end bit, a dependent task's claim
   request is its predecessor's write-back end bit, a grant is the
   previous occupant's release bit).  That lets us reconstruct the
   blocking graph — what each span's start was waiting on — by walking
   backward from [Trace.end_time]: at every cut we ask "what finished
   exactly here?", consume that span, and continue from its start.
   Whenever nothing finishes at the cut, the machine was waiting on an
   untraced delay (a retry backoff window, the master's fork/orchestra-
   tion serialization, a dependence release) and we close the gap to
   the latest earlier finisher.

   The walk yields a chain of segments that tiles [0, end_time] with
   shared boundary floats — no epsilons anywhere — and attributes every
   second of elapsed time to exactly one bucket:

     cpu              compute on the critical path, split by phase tag
     dependence_wait  dispatch released by a plan dependence edge whose
                      predecessor published before the claim (rare: a
                      gated successor usually chains straight into its
                      predecessor's write-back, which is the honest
                      attribution — the edge is recorded either way)
     pool_wait        claim-to-grant on a contended workstation pool
     ether / fs       Ethernet transfers / file-server operations
     backoff          retry backoff windows (crash or timeout recovery)
     rollback         speculation abort protocol windows
     master_serial    untraced master work: forks, process startups,
                      mailbox hops, dispatch serialization

   Priority at a cut matters: pool grants outrank the unrelated
   activity that happens to finish at the same instant (the grant *is*
   the release of the station's previous occupant, so contention gets
   the blame and the dominant bottleneck shifts with pool size), the
   spec-abort protocol window outranks the store it wraps, compute
   outranks network.  Task-category wrapper spans never compete — they
   cover the primitive cpu/net/pool spans the walk consumes.

   Exactness.  Per-bucket sums re-associate the walk's additions, so a
   naive fold can drift a few ulp from [Trace.end_time].  The published
   invariant — fold the buckets in canonical order, get elapsed, as
   floats — is restored by letting the dominant bucket absorb the
   reassociation residue (an iterated ulp-nudge), cross-checked against
   its raw sum at rounding scale (1e-9 relative) so the nudge can never
   hide an attribution bug.  [assert_exact] checks the invariant, the
   tiling, and bucket non-negativity.

   Everything here only reads a finished trace: profiling can never
   perturb a timing. *)

type bucket =
  | Cpu
  | Dependence_wait
  | Pool_wait
  | Ether
  | Fs
  | Backoff
  | Rollback
  | Master_serial

let bucket_name = function
  | Cpu -> "cpu"
  | Dependence_wait -> "dependence_wait"
  | Pool_wait -> "pool_wait"
  | Ether -> "ether"
  | Fs -> "fs"
  | Backoff -> "backoff"
  | Rollback -> "rollback"
  | Master_serial -> "master_serial"

(* The canonical bucket order of the exact-sum invariant and of every
   exporter (tables, JSON, BENCH artifacts). *)
let bucket_order =
  [ Cpu; Dependence_wait; Pool_wait; Ether; Fs; Backoff; Rollback; Master_serial ]

type segment = {
  g_t0 : float;
  g_t1 : float;
  g_bucket : bucket;
  g_track : int;
  g_detail : string; (* phase tag, span name, or gap reason *)
  g_task : string option; (* enclosing task label, when attributable *)
}

type profile = {
  p_elapsed : float;
  p_segments : segment list; (* ascending; tiles [0, p_elapsed] exactly *)
  p_buckets : (string * float) list; (* canonical order; folds to p_elapsed *)
  p_cpu_by_tag : (string * float) list; (* raw path sums, largest first *)
  p_dep_edges : (string * string) list; (* plan edges crossed on the path *)
}

let fail fmt = Printf.ksprintf (fun m -> failwith ("Critpath: " ^ m)) fmt

(* A bucket's slot in [bucket_order]. *)
let bucket_index b = Option.get (List.find_index (( = ) b) bucket_order)

(* --- the backward chain walk --- *)

let of_trace ?plan ?elapsed (tr : Trace.t) : profile =
  let elapsed =
    match elapsed with Some e -> e | None -> Trace.end_time tr
  in
  let spans =
    List.filter (fun (s : Trace.span) -> s.Trace.cat <> "fault") (Trace.spans tr)
  in
  (* Walk candidates: the primitive resource spans ending inside the
     profiled window.  Under timeouts a superseded attempt's queued
     claim can be granted after the run already completed by other
     means and execute to its natural end as pure wasted work; an
     [~elapsed] anchor at [Timings.elapsed] keeps those stragglers off
     the path.  Task-category wrappers are excluded — they cover the
     cpu/net/pool spans the walk consumes — except spec-abort, the
     rollback window, which must outrank the store it wraps. *)
  let candidate (s : Trace.span) =
    s.Trace.t1 > s.Trace.t0
    && s.Trace.t1 <= elapsed
    &&
    match s.Trace.cat with
    | "cpu" | "net" | "pool" -> true
    | "task" -> s.Trace.name = "spec-abort"
    | _ -> false
  in
  let cands = List.filter candidate spans in
  let ends_at : (float, Trace.span list) Hashtbl.t = Hashtbl.create 256 in
  List.iter
    (fun (s : Trace.span) ->
      let prev =
        match Hashtbl.find_opt ends_at s.Trace.t1 with Some l -> l | None -> []
      in
      Hashtbl.replace ends_at s.Trace.t1 (s :: prev))
    cands;
  let end_times =
    Array.of_list
      (List.sort_uniq compare (List.map (fun (s : Trace.span) -> s.Trace.t1) cands))
  in
  (* Largest candidate end strictly below [t]; 0 when none. *)
  let prev_end t =
    let lo = ref 0 and hi = ref (Array.length end_times) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if end_times.(mid) < t then lo := mid + 1 else hi := mid
    done;
    if !lo = 0 then 0.0 else end_times.(!lo - 1)
  in
  (* Blame priority at a cut (see the header). *)
  let rank (s : Trace.span) =
    match s.Trace.cat with
    | "pool" -> 0
    | "task" -> 1 (* spec-abort *)
    | "cpu" -> 2
    | _ -> if s.Trace.track = Trace.fs_track then 3 else 4
  in
  let pick t =
    match Hashtbl.find_opt ends_at t with
    | None -> None
    | Some ss ->
      let better (a : Trace.span) (b : Trace.span) =
        let ra = rank a and rb = rank b in
        if ra <> rb then ra < rb
        else if a.Trace.t0 <> b.Trace.t0 then a.Trace.t0 > b.Trace.t0
        else a.Trace.track < b.Trace.track
      in
      List.fold_left
        (fun best s ->
          match best with
          | None -> Some s
          | Some b -> if better s b then Some s else best)
        None ss
  in
  (* Task labels by containment: the innermost task-lifecycle wrapper
     covering a segment names the task it served (net segments live on
     the infrastructure tracks, so containment is checked across all
     tracks and the tightest wrapper wins). *)
  let task_spans =
    List.filter
      (fun (s : Trace.span) ->
        s.Trace.cat = "task" && List.mem_assoc "task" s.Trace.args)
      spans
  in
  let label_for ~t0 ~t1 =
    List.fold_left
      (fun best (s : Trace.span) ->
        if s.Trace.t0 <= t0 && t1 <= s.Trace.t1 then
          match best with
          | Some (b : Trace.span)
            when b.Trace.t1 -. b.Trace.t0 <= s.Trace.t1 -. s.Trace.t0 ->
            best
          | _ -> Some s
        else best)
      None task_spans
    |> fun o -> Option.bind o (fun s -> List.assoc_opt "task" s.Trace.args)
  in
  (* Plan context: each task's predecessors by {!Plan.label}, for gap
     classification and for naming the edges the path crosses.  Pass
     the *scheduled* plan: batching merges tasks and the labels must
     match the dispatched queues (same convention as
     Traceview.violations). *)
  let preds_of : (string, string list) Hashtbl.t = Hashtbl.create 32 in
  Option.iter
    (fun (p : Plan.t) ->
      List.iter
        (fun (section, tasks) ->
          let arr = Array.of_list tasks in
          Array.iteri
            (fun j ds ->
              if ds <> [] then
                let l = Plan.label arr.(j) in
                let prev = Option.value ~default:[] (Hashtbl.find_opt preds_of l) in
                Hashtbl.replace preds_of l
                  (List.sort_uniq compare
                     (List.map (fun i -> Plan.label arr.(i)) ds @ prev)))
            (Sched.task_deps (Plan.section_edges p section) tasks))
        p.Plan.tasks_per_section)
    plan;
  (* Gap context: retry instants mark backoff-window ends (the instant
     is emitted at the relaunch's own DES time); claim-span starts name
     the task whose dispatch the gap released. *)
  let retry_at = Hashtbl.create 16 in
  List.iter
    (fun (i : Trace.instant) ->
      if i.Trace.i_cat = "task" && i.Trace.i_name = "retry" then
        Hashtbl.replace retry_at i.Trace.at ())
    (Trace.instants tr);
  let claim_label_at = Hashtbl.create 64 in
  List.iter
    (fun (s : Trace.span) ->
      if s.Trace.cat = "task" && s.Trace.name = "claim" then
        match List.assoc_opt "task" s.Trace.args with
        | Some l -> Hashtbl.replace claim_label_at s.Trace.t0 l
        | None -> ())
    spans;
  let classify_gap t =
    if Hashtbl.mem retry_at t then (Backoff, "retry backoff", None)
    else
      match Hashtbl.find_opt claim_label_at t with
      | Some l -> (
        match Hashtbl.find_opt preds_of l with
        | Some preds ->
          ( Dependence_wait,
            Printf.sprintf "released by %s" (String.concat "," (List.sort compare preds)),
            Some l )
        | None -> (Master_serial, "dispatch of " ^ l, Some l))
      | None -> (Master_serial, "master orchestration", None)
  in
  (* The walk itself.  The cut strictly decreases (a picked span is
     nonzero; a gap target is strictly earlier), so it terminates, and
     each segment's boundaries are floats the trace already contained —
     the tiling is exact by construction. *)
  let segs = ref [] in
  let cut = ref elapsed in
  while !cut > 0.0 do
    match pick !cut with
    | Some s ->
      let bucket, detail =
        match s.Trace.cat with
        | "pool" -> (Pool_wait, "pool-wait")
        | "task" -> (Rollback, "spec-abort")
        | "cpu" ->
          let tag =
            match List.assoc_opt "tag" s.Trace.args with Some t -> t | None -> "cpu"
          in
          (Cpu, tag)
        | _ ->
          if s.Trace.track = Trace.fs_track then (Fs, s.Trace.name)
          else (Ether, s.Trace.name)
      in
      segs :=
        {
          g_t0 = s.Trace.t0;
          g_t1 = !cut;
          g_bucket = bucket;
          g_track = s.Trace.track;
          g_detail = detail;
          g_task = label_for ~t0:s.Trace.t0 ~t1:!cut;
        }
        :: !segs;
      cut := s.Trace.t0
    | None ->
      let t' = prev_end !cut in
      let bucket, detail, task = classify_gap !cut in
      segs :=
        { g_t0 = t'; g_t1 = !cut; g_bucket = bucket; g_track = 0;
          g_detail = detail; g_task = task }
        :: !segs;
      cut := t'
  done;
  let segments = !segs in
  (* Raw bucket sums, accumulated in path order. *)
  let raw = Array.make (List.length bucket_order) 0.0 in
  let tags : (string * float ref) list ref = ref [] in
  List.iter
    (fun g ->
      let d = g.g_t1 -. g.g_t0 in
      let i = bucket_index g.g_bucket in
      raw.(i) <- raw.(i) +. d;
      if g.g_bucket = Cpu then
        match List.assoc_opt g.g_detail !tags with
        | Some r -> r := !r +. d
        | None -> tags := !tags @ [ (g.g_detail, ref d) ])
    segments;
  (* Restore the exact-sum invariant (see the header): one bucket
     absorbs the canonical fold's reassociation residue.  First choice
     is the dominant bucket (the residue then lands where it is
     relatively smallest); because round-to-even can make the canonical
     fold skip [elapsed] as that bucket varies, the naive nudge loop is
     backed by an ulp-by-ulp neighbourhood scan, and failing that the
     residue moves to the last nonzero bucket — every later fold stage
     is [+. 0.0], which is exact on nonnegative values, so that solve
     is effectively single-stage and cannot skip. *)
  let fold_with k x =
    let acc = ref 0.0 in
    Array.iteri (fun i v -> acc := !acc +. (if i = k then x else v)) raw;
    !acc
  in
  let solve k =
    let fitted = ref raw.(k) in
    let steps = ref 0 in
    while fold_with k !fitted <> elapsed && !steps < 64 do
      fitted := !fitted +. (elapsed -. fold_with k !fitted);
      incr steps
    done;
    if fold_with k !fitted = elapsed then Some !fitted
    else begin
      let up = ref !fitted and down = ref !fitted in
      let found = ref None in
      let n = ref 0 in
      while !found = None && !n < 4096 do
        up := Float.succ !up;
        down := Float.pred !down;
        if fold_with k !up = elapsed then found := Some !up
        else if fold_with k !down = elapsed then found := Some !down;
        incr n
      done;
      !found
    end
  in
  let dominant = ref 0 in
  Array.iteri (fun i v -> if v > raw.(!dominant) then dominant := i) raw;
  let last_nonzero = ref !dominant in
  Array.iteri (fun i v -> if v > 0.0 then last_nonzero := i) raw;
  let k, fitted =
    match solve !dominant with
    | Some x -> (!dominant, x)
    | None -> (
      match solve !last_nonzero with
      | Some x when x >= 0.0 -> (!last_nonzero, x)
      | _ ->
        fail "bucket fold %.17g cannot be reconciled with elapsed %.17g"
          (fold_with !dominant raw.(!dominant))
          elapsed)
  in
  if Float.abs (fitted -. raw.(k)) > 1e-9 *. Float.max 1.0 elapsed then
    fail "reassociation residue %.17g on %s exceeds rounding scale"
      (fitted -. raw.(k))
      (bucket_name (List.nth bucket_order k));
  raw.(k) <- fitted;
  (* Dependence edges crossed: a boundary where the path hands over
     from predecessor to successor task across a plan edge, plus every
     edge a dependence-wait gap named. *)
  let dep_edges = ref [] in
  let add_edge e = if not (List.mem e !dep_edges) then dep_edges := e :: !dep_edges in
  let rec cross = function
    | a :: (b :: _ as rest) ->
      (match (a.g_task, b.g_task) with
      | Some la, Some lb when la <> lb -> (
        match Hashtbl.find_opt preds_of lb with
        | Some preds when List.mem la preds -> add_edge (la, lb)
        | _ -> ())
      | _ -> ());
      (match b.g_bucket with
      | Dependence_wait -> (
        match b.g_task with
        | Some lb -> (
          match Hashtbl.find_opt preds_of lb with
          | Some preds -> List.iter (fun la -> add_edge (la, lb)) preds
          | None -> ())
        | None -> ())
      | _ -> ());
      cross rest
    | _ -> ()
  in
  cross segments;
  {
    p_elapsed = elapsed;
    p_segments = segments;
    p_buckets = List.map (fun b -> (bucket_name b, raw.(bucket_index b))) bucket_order;
    p_cpu_by_tag =
      List.map (fun (t, r) -> (t, !r)) !tags
      |> List.sort (fun (_, a) (_, b) -> compare b a);
    p_dep_edges = List.sort compare !dep_edges;
  }

(* --- the exactness oracle --- *)

let assert_exact (p : profile) : unit =
  let sum = List.fold_left (fun acc (_, v) -> acc +. v) 0.0 p.p_buckets in
  if sum <> p.p_elapsed then
    fail "bucket sum %.17g <> elapsed %.17g" sum p.p_elapsed;
  List.iter
    (fun (n, v) -> if not (v >= 0.0) then fail "bucket %s negative: %.17g" n v)
    p.p_buckets;
  match p.p_segments with
  | [] -> if p.p_elapsed <> 0.0 then fail "empty path but elapsed %.17g" p.p_elapsed
  | first :: _ ->
    if first.g_t0 <> 0.0 then fail "path starts at %.17g, not 0" first.g_t0;
    let last =
      List.fold_left
        (fun prev g ->
          if g.g_t0 <> prev then
            fail "path is not a tiling: segment starts at %.17g, previous ended %.17g"
              g.g_t0 prev;
          if g.g_t1 < g.g_t0 then fail "negative segment at %.17g" g.g_t0;
          g.g_t1)
        first.g_t0 p.p_segments
    in
    if last <> p.p_elapsed then
      fail "path ends at %.17g, not elapsed %.17g" last p.p_elapsed

let bucket p name =
  match List.assoc_opt name p.p_buckets with Some v -> v | None -> 0.0

(* --- what-if upper bounds --- *)

type whatif = {
  w_name : string;
  w_removed : float; (* critical-path seconds the scenario deletes *)
  w_elapsed : float; (* projected elapsed: p_elapsed - w_removed *)
  w_speedup : float; (* p_elapsed / w_elapsed (upper bound) *)
}

(* Re-walk the critical path with one cost class free.  Deleting a
   class only from the recorded path is optimistic — the real schedule
   would reroute onto a second-longest path at least this long to
   compute — so each projection is a sound upper bound on what fixing
   that class alone could buy. *)
let what_ifs (p : profile) : whatif list =
  let mk name removed =
    let removed = Float.min removed p.p_elapsed in
    let e = p.p_elapsed -. removed in
    {
      w_name = name;
      w_removed = removed;
      w_elapsed = e;
      w_speedup = (if e > 0.0 then p.p_elapsed /. e else Float.infinity);
    }
  in
  [
    mk "free-comms" (bucket p "ether" +. bucket p "fs");
    mk "infinite-stations" (bucket p "pool_wait");
    mk "zero-faults" (bucket p "backoff" +. bucket p "rollback");
    mk "perfect-speculation" (bucket p "rollback");
  ]

(* --- the Depan DAG bound (si_levels) --- *)

type dag_bound = {
  db_max_levels : int; (* deepest section chain; 1 = edge-free *)
  db_serial : float; (* sum of per-function phase-2+3 estimates *)
  db_chain : float; (* per-section sum over levels of the level max *)
  db_speedup : float; (* serial / chain: the analysis-side bound *)
}

let dag_bound ~cost (mw : Driver.Compile.module_work) : dag_bound =
  let by_name = Hashtbl.create 64 in
  List.iter
    (fun (fw : Driver.Compile.func_work) ->
      Hashtbl.replace by_name fw.Driver.Compile.fw_name fw)
    (Driver.Compile.all_funcs mw);
  let fw_seconds (fi : Analysis.Depan.func_info) =
    match Hashtbl.find_opt by_name fi.Analysis.Depan.fi_name with
    | Some fw -> Driver.Cost.phase23_seconds cost fw
    | None -> 0.0
  in
  let serial = ref 0.0 and chain = ref 0.0 and max_levels = ref 1 in
  List.iter
    (fun (si : Analysis.Depan.section_info) ->
      max_levels := max !max_levels (List.length si.Analysis.Depan.si_levels);
      List.iter
        (fun level ->
          let m =
            List.fold_left
              (fun m i -> Float.max m (fw_seconds si.Analysis.Depan.si_funcs.(i)))
              0.0 level
          in
          chain := !chain +. m)
        si.Analysis.Depan.si_levels;
      Array.iter
        (fun fi -> serial := !serial +. fw_seconds fi)
        si.Analysis.Depan.si_funcs)
    mw.Driver.Compile.mw_analysis.Analysis.Depan.dp_sections;
  {
    db_max_levels = !max_levels;
    db_serial = !serial;
    db_chain = !chain;
    db_speedup = (if !chain > 0.0 then !serial /. !chain else 1.0);
  }

(* --- top-k bottlenecks --- *)

type hotspot = {
  h_label : string; (* task label, or the segment detail off-task *)
  h_bucket : string;
  h_reason : string; (* blocking reason: the dominant segment detail *)
  h_track : int; (* track of the largest contributing segment *)
  h_seconds : float;
  h_share : float; (* of elapsed *)
}

let top ?(k = 10) (p : profile) : hotspot list =
  let groups : ((string * string), float ref * (float * int * string) ref) Hashtbl.t =
    Hashtbl.create 32
  in
  List.iter
    (fun g ->
      let label = match g.g_task with Some l -> l | None -> g.g_detail in
      let key = (label, bucket_name g.g_bucket) in
      let d = g.g_t1 -. g.g_t0 in
      match Hashtbl.find_opt groups key with
      | Some (sum, best) ->
        sum := !sum +. d;
        let bd, _, _ = !best in
        if d > bd then best := (d, g.g_track, g.g_detail)
      | None -> Hashtbl.replace groups key (ref d, ref (d, g.g_track, g.g_detail)))
    p.p_segments;
  let all =
    Hashtbl.fold
      (fun (label, bname) (sum, best) acc ->
        let _, track, reason = !best in
        {
          h_label = label;
          h_bucket = bname;
          h_reason = reason;
          h_track = track;
          h_seconds = !sum;
          h_share = (if p.p_elapsed > 0.0 then !sum /. p.p_elapsed else 0.0);
        }
        :: acc)
      groups []
  in
  let sorted =
    List.sort
      (fun a b ->
        match compare b.h_seconds a.h_seconds with
        | 0 -> compare (a.h_label, a.h_bucket) (b.h_label, b.h_bucket)
        | c -> c)
      all
  in
  List.filteri (fun i _ -> i < k) sorted

(* --- flow arrows for the Chrome exporter --- *)

(* Consecutive path segments on different tracks: where the critical
   path hops between machines.  Rendered by [Trace.to_chrome_json] as
   s/f flow-event pairs so Perfetto draws the path. *)
let path_flows (p : profile) : (int * float * int * float) list =
  let rec go acc = function
    | a :: (b :: _ as rest) ->
      let acc =
        if a.g_track <> b.g_track then (a.g_track, a.g_t1, b.g_track, b.g_t0) :: acc
        else acc
      in
      go acc rest
    | _ -> List.rev acc
  in
  go [] p.p_segments

(* --- renderers --- *)

let bucket_table (p : profile) : Stats.Table.t =
  let table =
    Stats.Table.make
      ~title:
        (Printf.sprintf "Critical-path attribution, %.1f s elapsed (exact sum)"
           p.p_elapsed)
      ~columns:[ "bucket"; "seconds"; "share" ]
  in
  let table =
    List.fold_left
      (fun table (name, v) ->
        Stats.Table.add_row table
          [
            name;
            Printf.sprintf "%.1f" v;
            Printf.sprintf "%.1f%%"
              (if p.p_elapsed > 0.0 then 100.0 *. v /. p.p_elapsed else 0.0);
          ])
      table p.p_buckets
  in
  List.fold_left
    (fun table (tag, v) ->
      Stats.Table.add_row table
        [
          "  cpu." ^ tag;
          Printf.sprintf "%.1f" v;
          Printf.sprintf "%.1f%%"
            (if p.p_elapsed > 0.0 then 100.0 *. v /. p.p_elapsed else 0.0);
        ])
    table p.p_cpu_by_tag

let top_table ?k (p : profile) : Stats.Table.t =
  let table =
    Stats.Table.make ~title:"Top bottlenecks on the critical path"
      ~columns:[ "task/phase"; "bucket"; "blocking reason"; "track"; "seconds"; "share" ]
  in
  List.fold_left
    (fun table h ->
      Stats.Table.add_row table
        [
          h.h_label;
          h.h_bucket;
          h.h_reason;
          Trace.track_name h.h_track;
          Printf.sprintf "%.1f" h.h_seconds;
          Printf.sprintf "%.1f%%" (100.0 *. h.h_share);
        ])
    table (top ?k p)

let whatif_table ?bound (p : profile) : Stats.Table.t =
  let table =
    Stats.Table.make ~title:"What-if upper bounds (one cost class zeroed)"
      ~columns:[ "scenario"; "removed s"; "projected s"; "speedup <=" ]
  in
  let table =
    List.fold_left
      (fun table w ->
        Stats.Table.add_row table
          [
            w.w_name;
            Printf.sprintf "%.1f" w.w_removed;
            Printf.sprintf "%.1f" w.w_elapsed;
            Printf.sprintf "%.2f" w.w_speedup;
          ])
      table (what_ifs p)
  in
  match bound with
  | None -> table
  | Some b ->
    Stats.Table.add_row table
      [
        Printf.sprintf "depan dag bound (%d level%s)" b.db_max_levels
          (if b.db_max_levels = 1 then "" else "s");
        "-";
        Printf.sprintf "%.1f" b.db_chain;
        Printf.sprintf "%.2f" b.db_speedup;
      ]

(* --- JSON (schema warpcc-profile/1) --- *)

(* Every float prints with %.17g so the exact-sum invariant survives
   the round-trip: a consumer can re-add the buckets in schema order
   and compare bit for bit (CI's profile-smoke job does). *)
let to_json ?(module_name = "") ?(policy = "") ?(processors = 0) ?top:(k = 10)
    ?bound (p : profile) : string =
  let open Stats.Json in
  let seconds pairs = Obj (List.map (fun (name, v) -> (name, Exact v)) pairs) in
  let segment g =
    Obj [ ("t0", Exact g.g_t0); ("t1", Exact g.g_t1);
          ("bucket", Str (bucket_name g.g_bucket)); ("track", Int g.g_track);
          ("detail", Str g.g_detail); ("task", option (fun l -> Str l) g.g_task) ]
  in
  let hotspot h =
    Obj [ ("label", Str h.h_label); ("bucket", Str h.h_bucket);
          ("reason", Str h.h_reason); ("track", Int h.h_track);
          ("seconds", Exact h.h_seconds); ("share", Exact h.h_share) ]
  in
  let what_if w =
    ( w.w_name,
      Obj [ ("removed", Exact w.w_removed); ("elapsed", Exact w.w_elapsed);
            ("speedup", Exact w.w_speedup) ] )
  in
  let dag_bound d =
    ( "dag_bound",
      Obj [ ("max_levels", Int d.db_max_levels); ("serial", Exact d.db_serial);
            ("chain", Exact d.db_chain); ("speedup", Exact d.db_speedup) ] )
  in
  to_string
    (Obj
       ([ ("schema", Str "warpcc-profile/1"); ("module", Str module_name);
          ("policy", Str policy); ("processors", Int processors);
          ("elapsed", Exact p.p_elapsed); ("buckets", seconds p.p_buckets);
          ("cpu_by_tag", seconds p.p_cpu_by_tag);
          ("critical_path", List (List.map segment p.p_segments));
          ("dep_edges", List (List.map (fun (a, c) -> strings [ a; c ]) p.p_dep_edges));
          ("top", List (List.map hotspot (top ~k p)));
          ("what_if", Obj (List.map what_if (what_ifs p))) ]
       @ Option.to_list (Option.map dag_bound bound)))
