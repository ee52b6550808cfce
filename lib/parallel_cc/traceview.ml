(* Dependence-order oracles over the trace of a parallel run.

   The DAG policies promise that a task claims its station only after
   every predecessor's output is durably written back.  This oracle
   re-derives that ordering from the span store alone: each task gets a
   logical clock that ticks at its first claim and at its earliest
   durable write-back (the winning attempt's — superseded stragglers
   write back later and are ignored, exactly as their outputs are), and
   each promised edge demands finish(before) <= start(after).  Because
   the only cross-task edges the schedule promises are the analyzer's,
   this is a two-entry vector clock per edge; anything richer would
   re-verify the DES itself. *)

type ordering_violation = {
  ov_section : string;
  ov_before : string;
  ov_after : string;
  ov_finish : float; (* earliest durable write-back of [ov_before] *)
  ov_start : float; (* first, or winning, claim of [ov_after] *)
}

let violation_to_string (v : ordering_violation) =
  Printf.sprintf
    "section %s: task '%s' claimed at %.6f before its dependence '%s' \
     wrote back at %.6f"
    v.ov_section v.ov_after v.ov_start v.ov_before v.ov_finish

(* Span args identify tasks by {!Plan.label} only, so a label reused
   across sections cannot be attributed; skip such edges rather than
   report phantom races. *)
let unambiguous_labels (plan : Plan.t) =
  let owners = Hashtbl.create 32 in
  List.iter
    (fun (_, tasks) ->
      List.iter
        (fun t ->
          let l = Plan.label t in
          Hashtbl.replace owners l
            (1 + Option.value ~default:0 (Hashtbl.find_opt owners l)))
        tasks)
    plan.Plan.tasks_per_section;
  fun l -> Hashtbl.find_opt owners l = Some 1

(* Per-label marks recovered from the span store: the first claim over
   all attempts, the first claim of each particular attempt, and the
   earliest durable publication (write-back, fallback, or speculative
   commit — a committed stage IS the durable artifact, its quarantined
   sibling never becomes readable) together with the attempt that won
   it. *)
type marks = {
  m_first_claim : (string, float) Hashtbl.t;
  m_claim_of_attempt : (string * string, float) Hashtbl.t;
  m_durable : (string, float * string) Hashtbl.t;
}

let collect_marks (tr : Trace.t) : marks =
  let m =
    {
      m_first_claim = Hashtbl.create 32;
      m_claim_of_attempt = Hashtbl.create 32;
      m_durable = Hashtbl.create 32;
    }
  in
  List.iter
    (fun (s : Trace.span) ->
      if s.Trace.cat = "task" then
        match List.assoc_opt "task" s.Trace.args with
        | None -> ()
        | Some label -> (
          let attempt =
            Option.value ~default:"" (List.assoc_opt "attempt" s.Trace.args)
          in
          match s.Trace.name with
          | "claim" ->
            let t0 = s.Trace.t0 in
            (match Hashtbl.find_opt m.m_first_claim label with
            | Some t when t <= t0 -> ()
            | _ -> Hashtbl.replace m.m_first_claim label t0);
            (match Hashtbl.find_opt m.m_claim_of_attempt (label, attempt) with
            | Some t when t <= t0 -> ()
            | _ -> Hashtbl.replace m.m_claim_of_attempt (label, attempt) t0)
          | "write-back" | "fallback" | "spec-commit" ->
            let t1 = s.Trace.t1 in
            (match Hashtbl.find_opt m.m_durable label with
            | Some (t, _) when t <= t1 -> ()
            | _ -> Hashtbl.replace m.m_durable label (t1, attempt))
          | _ -> ()))
    (Trace.spans tr);
  m

(* Check every edge of [plan] whose class [keep] accepts as
   finish(before) <= start(after), where the successor's start is
   chosen by [start_of] (first claim for gated edges; the winning
   attempt's claim for speculative ones). *)
let edge_violations (m : marks) ~(plan : Plan.t) ~keep ~start_of :
    ordering_violation list =
  let unambiguous = unambiguous_labels plan in
  let violations = ref [] in
  List.iter
    (fun (section, tasks) ->
      let deps = Sched.task_deps (Plan.section_edges ~keep plan section) tasks in
      let arr = Array.of_list tasks in
      Array.iteri
        (fun j ds ->
          List.iter
            (fun i ->
              let before = Plan.label arr.(i) and after = Plan.label arr.(j) in
              if unambiguous before && unambiguous after then
                match (Hashtbl.find_opt m.m_durable before, start_of m after) with
                | Some (finish, _), Some start when start < finish ->
                  violations :=
                    {
                      ov_section = section;
                      ov_before = before;
                      ov_after = after;
                      ov_finish = finish;
                      ov_start = start;
                    }
                    :: !violations
                | _ -> ())
            ds)
        deps)
    plan.Plan.tasks_per_section;
  List.rev !violations

let first_claim (m : marks) label = Hashtbl.find_opt m.m_first_claim label

(* The claim of the attempt whose publication became durable.  A task
   finished by the master's sequential fallback has no claim span for
   the winning "attempt"; the fallback runs in the master's own Lisp
   over the already-parsed module, so such edges are vacuous and the
   lookup's [None] skips them. *)
let winning_claim (m : marks) label =
  match Hashtbl.find_opt m.m_durable label with
  | None -> None
  | Some (_, attempt) -> Hashtbl.find_opt m.m_claim_of_attempt (label, attempt)

(* The oracle matching what a policy's gating promises:
   - ungated policies promise no order;
   - under [All] every edge is gated: no attempt of the successor may
     claim before the predecessor's durable publication;
   - the dag+spec promise ([Proven]) is weaker, and different per edge
     class.  Proven edges are still gated.  Hot speculative edges
     (pairs the uncapped effect summaries show really conflict) may be
     overlapped by attempts that lose, but the WINNING attempt — the
     one whose output readers see — must have claimed after the
     predecessor published.  Cold speculative edges (conservative
     analysis artifacts between pairs that share no state) are
     unconstrained. *)
let violations (gating : Sched.gating) (tr : Trace.t) ~(plan : Plan.t) :
    ordering_violation list =
  match gating with
  | Sched.Ungated -> []
  | Sched.All ->
    edge_violations (collect_marks tr) ~plan ~keep:(fun _ -> true)
      ~start_of:first_claim
  | Sched.Proven ->
    let m = collect_marks tr in
    edge_violations m ~plan ~keep:(( = ) Plan.Proven) ~start_of:first_claim
    @ edge_violations m ~plan ~keep:(( = ) Plan.Hot) ~start_of:winning_claim
