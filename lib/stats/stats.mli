(** Small statistics helpers shared by the benchmark harness, the
    examples and the experiment driver.

    The paper (section 4.2) reports the arithmetic mean of repeated
    measurements and notes that individual deviations stay within 10%
    of the average; {!mean}, {!stddev} and {!within_fraction} implement
    exactly the checks needed to mirror that protocol. *)

val mean : float list -> float
(** Arithmetic mean.  @raise Invalid_argument on the empty list. *)

val variance : float list -> float
(** Sample variance (n-1 denominator); [0.] for fewer than two samples. *)

val stddev : float list -> float
(** Sample standard deviation. *)

val within_fraction : float -> float list -> bool
(** [within_fraction frac xs] is [true] when every sample lies within
    [frac] (relative) of the mean — the paper's acceptance criterion
    for a measurement series. *)

val minimum : float list -> float
(** Smallest element.  @raise Invalid_argument on the empty list. *)

val maximum : float list -> float
(** Largest element.  @raise Invalid_argument on the empty list. *)

val speedup : sequential:float -> parallel:float -> float
(** Speedup of a parallel run over a sequential baseline.
    @raise Invalid_argument when [parallel <= 0.]. *)

val percent_of : part:float -> total:float -> float
(** [percent_of ~part ~total] is [100 * part / total] ([0.] when
    [total = 0.]) — the unit of the paper's figures 8-10. *)

val geomean : float list -> float
(** Geometric mean, used to summarise speedups across programs.
    @raise Invalid_argument on the empty list. *)

val lerp : float -> float -> float -> float
(** [lerp a b t] is the linear interpolation [a + (b - a) * t]. *)

(** ASCII tables for the benchmark output. *)
module Table : sig
  type t
  (** A table under construction: a title, a header row and data rows. *)

  val make : title:string -> columns:string list -> t
  (** An empty table with the given title and column headers. *)

  val add_row : t -> string list -> t
  (** Append a row of cells.
      @raise Invalid_argument if the cell count differs from the
      column count. *)

  val render : t -> string
  (** The table as boxed ASCII art, title first. *)

  val print : t -> unit
  (** [print t] writes {!render}[ t] to standard output. *)
end
