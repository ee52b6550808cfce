(** Real multicore execution of the master / section-master /
    function-master hierarchy using OCaml domains.

    The discrete-event simulation reproduces the paper's measurements
    on a period-accurate host; this driver demonstrates that the same
    orchestration runs the {e actual} compiler in parallel on today's
    hardware: sections independent, phases 1 and 4 sequential — the
    structure of the paper's figure 2.  Phase 1 fixes the task set, so
    every function sits in one source-order array and the function
    masters take tasks FCFS through one shared atomic index.  The
    calling domain is one of the masters: it spawns [workers − 1]
    domains, takes tasks like them until none is left, then joins
    them. *)

type result = { images : (string * Warp.Mcode.image) list (** per section *) }

val compile_parallel :
  ?workers:int -> ?level:int -> W2.Ast.modul -> result
(** Compile with up to [workers] function masters running at once, the
    calling domain included ([workers] below 1 counts as 1).
    A raising function master does not stop the others: the master
    waits for every task, then re-raises the first failure in source
    order, as the sequential compiler would.
    @raise Driver.Compile.Compile_error on phase-1 failure. *)
