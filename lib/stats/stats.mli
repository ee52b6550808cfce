(** Small statistics helpers shared by the benchmark harness, the
    examples and the experiment driver.

    The paper (section 4.2) reports the arithmetic mean of repeated
    measurements and notes that individual deviations stay within 10%
    of the average; {!mean}, {!stddev} and {!within_fraction} implement
    exactly the checks needed to mirror that protocol. *)

val mean : float list -> float
(** Arithmetic mean.  @raise Invalid_argument on the empty list. *)

val stddev : float list -> float
(** Sample standard deviation (n-1 denominator); [0.] for fewer than
    two samples. *)

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

(** JSON documents: the one value type and printer behind every
    machine-readable writer ([BENCH_*.json], [analyze --json],
    [simulate --json], [profile --json], SARIF, Chrome traces). *)
module Json : sig
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Fixed of int * float  (** printed with that many decimals *)
    | Exact of float  (** printed [%.17g]: round-trips bit for bit *)
    | Str of string
    | List of t list
    | Obj of (string * t) list  (** members in list order *)

  val strings : string list -> t
  (** A [List] of [Str]. *)

  val option : ('a -> t) -> 'a option -> t
  (** [option f x] is [f v] for [Some v], [Null] for [None]. *)

  val to_string : t -> string
  (** The document in one fixed layout: objects and arrays at nesting
      depth 0 and 1 put one member per line, indented two spaces per
      level; deeper ones print inline with [", "] between members and
      [": "] after keys; empty containers print [[]] and [{}]; a
      non-finite [Fixed] or [Exact] prints [null]; strings get the
      short escapes for quote, backslash, newline and tab and
      [\u00XX] for other control bytes.  The text ends with one
      newline. *)
end
