(** The sequential compiler on the simulated host: one workstation, one
    Common-Lisp process doing all four phases in order; its heap holds
    the whole module, so memory pressure grows as compilation proceeds
    (the paper's explanation of the sequential compiler's own system
    overhead). *)

val compile_process :
  Lisp.host -> Driver.Compile.module_work -> on_finish:(float -> unit) ->
  unit -> unit
(** The spawnable body of one sequential compilation: the {!Lisp}
    steps — claim a workstation, start Lisp, the four phases with a
    compile-cache {!Lisp.lookup} per function, {!Lisp.write_back} —
    then {!Lisp.release} the station and report the completion time.
    Reused by the parallel-make study, where several instances share
    one host.  Its compile-cache events are appended to the host's log,
    traced on the claimed station's track. *)

val run : Config.t -> Driver.Compile.module_work -> Timings.run
(** One sequential compilation under {!Lisp.simulate}, its counters
    folded from its run log. *)
