(** Real multicore execution of the master / section-master /
    function-master hierarchy using OCaml domains.

    The discrete-event simulation reproduces the paper's measurements
    on a period-accurate host; this driver runs the {e actual}
    compiler's phases 2-3 on {!Driver.Compile.function_masters}, the
    same pool [Driver.Compile.compile_source] runs them on: sections
    independent, phases 1 and 4 sequential, the structure of the
    paper's figure 2.  Its phase 1 is the semantic check alone and its
    phase 4 is linking alone, so it is the bare pool next to the full
    compiler. *)

type result = { images : (string * Warp.Mcode.image) list (** per section *) }

val compile_parallel :
  ?workers:int -> ?level:int -> W2.Ast.modul -> result
(** Compile with up to [min workers (Domain.recommended_domain_count ())]
    function masters running at once, the calling domain included
    ([workers] below 1 counts as 1).
    A raising function master does not stop the others: the master
    waits for every task, then re-raises the first failure in source
    order, as the sequential compiler would.
    @raise Driver.Compile.Compile_error on phase-1 failure. *)
