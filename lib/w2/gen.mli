(** Synthetic W2 programs: the paper's test inputs and random programs
    for property-based testing.

    Section 4.1 of the paper derives its test programs from a
    Monte-Carlo style simulation: five functions of 4, 35, 100, 280 and
    360 lines, each a loop nest (deeply nested for the larger sizes).
    All generators are deterministic in their arguments. *)

(** {1 The paper's benchmark sizes (section 4.1)} *)

type size = Tiny | Small | Medium | Large | Huge

val all_sizes : size list

val size_lines : size -> int
(** 4 / 35 / 100 / 280 / 360 lines of code. *)

val size_name : size -> string
(** ["f_tiny"] ... ["f_huge"]. *)

val sized_function : name:string -> size -> Ast.func
(** The Monte-Carlo benchmark function of that exact line count.
    Innermost loop bodies are branchless (like real systolic kernels),
    so they are software-pipelinable. *)

val function_of_lines : name:string -> int -> Ast.func
(** A function of (approximately, exactly where the skeletons allow)
    the requested line count, down to 4 lines. *)

(** {1 Whole programs} *)

val s_program : ?name:string -> size:size -> count:int -> unit -> Ast.modul
(** The paper's S_n: one section with [count] identical copies of the
    [size] function (equal tasks — "this allows optimal processor
    utilization", section 4.1). *)

val user_program : unit -> Ast.modul
(** The mechanical-engineering application of section 4.3: three
    sections of three functions each — one of ~300 lines plus two small
    ones per section. *)

val helper_program : ?drivers:int -> unit -> Ast.modul
(** The many-small-functions program motivating procedure inlining
    (section 5.1): [drivers] (default 6) driver functions, each calling
    three 8-line helpers of its own. *)

val module_of_function : Ast.func -> Ast.modul
(** Wrap a single function as a one-section module. *)

(** {1 Programs exercising the abstract-interpretation refinement} *)

val partitioned_program : ?workers:int -> ?seg:int -> unit -> Ast.modul
(** A partitioned lattice relaxation: [workers] functions each writing
    their own [seg]-element slice of a shared array (literal loop
    bounds), plus a collector that calls every worker and then sums the
    whole array.  Flow-insensitive analysis couples every worker pair
    through the array; the region domain refutes exactly those edges. *)

val histogram_program : ?drivers:int -> unit -> Ast.modul
(** [drivers] counters each owning one literal-indexed bin of a shared
    histogram, all calling the same pure smoothing helper: the
    helper edges survive, the counter-counter conflicts are refuted. *)

val deadchan_program : unit -> Ast.modul
(** Three functions sharing channel X, one of whose sends sits in a
    provably empty loop ([for i := 1 to 0]): the protocol domain prunes
    the dead sender's channel pairings and keeps the live one. *)

(** {1 Programs exercising dag+spec speculation} *)

val speculative_program : ?workers:int -> ?fanout:int -> unit -> Ast.modul
(** [workers] functions each writing only their own [fanout] private
    scalar globals — dynamically independent, but compiled with
    [max_tracked < fanout] (and the abstract interpretation off or
    starved) every summary hits the tracking cap and sound mode pins
    every pair with a [Summary_limit] edge.  dag+lpt serializes the
    section; dag+spec speculates past the cold edges and commits every
    attempt. *)

val racy_program : ?scatters:int -> unit -> Ast.modul
(** [scatters] functions all writing a shared accumulator array through
    data-dependent indices no interval reasoning can separate: every
    pair is a speculative and genuinely conflicting (hot) edge, so
    overlapped dag+spec attempts are guaranteed to roll back, while the
    compiled artifact stays bit-identical to a sequential build. *)

(** {1 Multi-module projects (cross-module analysis)} *)

type shape = Layered | Diamond | Clustered

val all_shapes : shape list

val shape_name : shape -> string
(** ["layered"] / ["diamond"] / ["clustered"]. *)

val shape_of_string : string -> shape option

val project_program :
  ?modules:int -> ?seed:int -> shape:shape -> unit -> Ast.modul list
(** A synthetic [modules]-module W2 project wired by [import]/[export]
    declarations, deterministic in its arguments and returned in
    dependency order (imports only point at earlier modules).  Module
    [i] is ["m<i>"] with the single section ["sec_m<i>"]; its functions
    are ["m<i>_f<j>"] with [f0] the entry; every exported function has
    the signature [(int, int) : float]; a module exports exactly what
    some other module imports.

    [Layered] and [Diamond] projects are lint-clean (safe under
    [--Werror]).  [Clustered] projects group modules into clusters of
    eight around a hub whose single accessor function owns a cluster
    global: the three importing clients really couple on the hub's
    state ([xmodule_global] edges), one client localizes a
    same-named global (the W011 witness — so clustered projects warn
    by design), and every fourth cluster exercises channel X.
    @raise Invalid_argument below 2 modules. *)

(** {1 Random programs for property-based testing} *)

val random_function :
  ?allow_channels:bool -> seed:int -> size:int -> unit -> Ast.func
(** A random but always well-typed, always-terminating function named
    [prop_f] with parameters [(n : int, a : float)].  With
    [allow_channels], statements may send on channel X. *)

(** {1 Edits for the compile-cache experiments} *)

val touch : Ast.func -> Ast.func
(** A behaviour-preserving edit: prepend a dead conditional
    ([if false then end]) to the function's body.  Parses and
    type-checks, changes the rendered source — hence the analyzer's
    content hash and every compile-cache key derived from it — while
    leaving effect summaries, the dependence DAG and the generated
    code's semantics alone. *)

val touch_in : Ast.modul -> string -> Ast.modul
(** {!touch} applied to the named function wherever it occurs.
    @raise Invalid_argument when no function has that name. *)
