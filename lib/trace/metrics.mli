(** Metrics registry (counters / gauges / histograms) over the span
    store.

    {!of_trace} is the standard derivation: it recomputes operational
    metrics — pool wait time and queue depth, per-phase CPU,
    paging-slowdown distribution, network and file-server traffic, and
    the recovery counters (retries, timeouts, fallbacks, wasted CPU,
    stations lost) and the speculation counters ([spec_dispatched] /
    [spec_committed] / [spec_rolled_back]) — purely from recorded
    spans, so nothing is accumulated twice.  The parallel runner emits
    each of those events in the same call that counts it, so the
    derived counters equal its [Timings] bookkeeping. *)

type histogram = {
  mutable h_count : int;
  mutable h_sum : float;
  mutable h_min : float;
  mutable h_max : float;
  mutable h_rev_values : float list; (** newest first *)
}

type t

val create : unit -> t
val incr : t -> string -> ?by:float -> unit -> unit
val set_gauge : t -> string -> float -> unit
val observe : t -> string -> float -> unit

val counter : t -> string -> float
(** 0 when the counter was never incremented. *)

val gauge : t -> string -> float option
val histogram : t -> string -> histogram option
val mean : histogram -> float

val quantile : histogram -> float -> float
(** Nearest-rank quantile, e.g. [quantile h 0.5] is the median. *)

val to_table : t -> Stats.Table.t
(** Every metric as one row, sorted by kind then name. *)

val of_trace : Trace.t -> t
(** The standard derivation from a trace (see module description). *)
