(** Dependence-order oracles: check, from the span store of a traced
    parallel run alone, that the run kept the ordering its schedule
    promised. *)

type ordering_violation = {
  ov_section : string;
  ov_before : string; (** task that had to complete first *)
  ov_after : string; (** task that claimed too early *)
  ov_finish : float; (** earliest durable write-back of [ov_before] *)
  ov_start : float;
      (** claim of [ov_after]: its first, or on a dag+spec hot edge its
          winning attempt's *)
}

val violation_to_string : ordering_violation -> string

val violations :
  Sched.gating -> Trace.t -> plan:Plan.t -> ordering_violation list
(** Check, from the span store alone, that a traced run kept the
    ordering its (scheduled) plan's gating promised.  For each
    task-level edge, the predecessor's earliest durable publication —
    the winning attempt's write-back, a speculative commit, or the
    fallback; superseded stragglers are ignored exactly as their
    outputs are — is compared with the successor's station claims.
    Task labels reused across sections cannot be attributed to spans
    and are skipped.
    - {!Sched.Ungated} promises no order: never a violation.
    - {!Sched.All}: no claim of the successor before the predecessor's
      publication, on every edge.
    - {!Sched.Proven} (dag+spec): proven edges as under [All]; hot
      speculative edges — pairs whose uncapped effect summaries really
      conflict — require only that the {e winning} attempt (the one
      whose output became durable) claimed after the predecessor
      published, since losing overlapped attempts are rolled back
      unread; cold speculative edges (conservative analysis artifacts)
      are unconstrained.  Tasks finished by the sequential fallback
      have no winning claim span and their incoming speculative edges
      are vacuous (the fallback reruns in the master's own Lisp).
    {!Parrun.run} asserts this is empty on every fresh traced run. *)
