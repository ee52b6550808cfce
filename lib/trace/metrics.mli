(** Metrics derived from the span store: counters, gauges and
    histograms keyed by name.

    {!of_trace} is the only producer: it recomputes operational
    metrics — pool wait time and queue depth, per-phase CPU,
    paging-slowdown distribution, network and file-server traffic, and
    the recovery counters (retries, timeouts, fallbacks, wasted CPU,
    stations lost) and the speculation counters ([spec_dispatched] /
    [spec_committed] / [spec_rolled_back]) — purely from recorded
    spans, so nothing is accumulated twice.  The parallel runner emits
    each of those events in the same call that counts it, so the
    derived counters equal its [Timings] bookkeeping. *)

type histogram = private {
  mutable h_count : int;
  mutable h_sum : float;
  mutable h_min : float;
  mutable h_max : float;
}

type t

val of_trace : Trace.t -> t
(** The derivation from a trace (see module description). *)

val counter : t -> string -> float
(** 0 when the trace produced no such counter. *)

val gauge : t -> string -> float option
val histogram : t -> string -> histogram option

val to_table : t -> Stats.Table.t
(** Every metric as one row, sorted by kind then name; a histogram row
    prints its sum, count, min, mean and max. *)
