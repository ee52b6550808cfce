(** Dependence-order oracles: check, from the span store of a traced
    parallel run alone, that the run kept the ordering its schedule
    promised. *)

type ordering_violation = {
  ov_section : string;
  ov_before : string; (** task that had to complete first *)
  ov_after : string; (** task that claimed too early *)
  ov_finish : float; (** earliest durable write-back of [ov_before] *)
  ov_start : float; (** first claim of [ov_after] *)
}

val violation_to_string : ordering_violation -> string

val race_check : Trace.t -> plan:Plan.t -> ordering_violation list
(** Check, from the span store alone, that every dependence edge of
    the (scheduled) plan was honoured by the recorded execution: for
    each task-level edge, the predecessor's earliest durable
    write-back — the winning attempt's; superseded stragglers are
    ignored exactly as their outputs are — must not be later than the
    successor's first station claim.  Task labels reused across
    sections cannot be attributed to spans and are skipped.  This is
    the promise of {!Sched.All} gating. *)

val race_check_spec : Trace.t -> plan:Plan.t -> ordering_violation list
(** The dag+spec variant of {!race_check}, enforcing the weaker
    per-edge-class promise: proven edges are checked like {!race_check}
    (no claim of the successor before the predecessor's durable
    publication, which now includes speculative commits); hot
    speculative edges — pairs whose uncapped effect summaries really
    conflict — require only that the {e winning} attempt (the one whose
    output became durable) claimed after the predecessor published,
    since losing overlapped attempts are rolled back unread; cold
    speculative edges (conservative analysis artifacts) are
    unconstrained.  Tasks finished by the sequential fallback have no
    winning claim span and their incoming speculative edges are vacuous
    (the fallback reruns in the master's own Lisp).  This is the
    promise of {!Sched.Proven} gating. *)

val violations :
  Sched.gating -> Trace.t -> plan:Plan.t -> ordering_violation list
(** The violations of whatever a gating promises: none for
    {!Sched.Ungated}, {!race_check} for {!Sched.All}, {!race_check_spec}
    for {!Sched.Proven}.  {!Parrun.run} asserts this is empty on every
    fresh traced run. *)
