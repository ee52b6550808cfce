(* Real multicore execution of the master / section-master /
   function-master hierarchy using OCaml domains.

   The discrete-event simulation reproduces the paper's measurements on
   a period-accurate host; this driver runs the *actual* compiler's
   phases 2-3 on the function-master pool that [Driver.Compile] itself
   uses: sections independent, phase 1 and phase 4 sequential, the
   structure of figure 2.  It skips what the full compiler adds around
   the pool (dependence analysis, lints, cache keys, verifier call
   checks), so it times the pool against the bare phases.

   Wall-clock speedups obviously depend on available cores; the tests
   only check functional equivalence. *)

type result = { images : (string * Warp.Mcode.image) list (* per section *) }

(* Compile [m] with up to [workers] function masters running at once,
   the calling domain included.
   Raises [Driver.Compile.Compile_error] on phase-1 failure, like the
   sequential master, and any function master's exception once every
   task has finished. *)
let compile_parallel ?(workers = 4) ?(level = 2) (m : W2.Ast.modul) : result =
  (* Phase 1: sequential master. *)
  (match W2.Semcheck.check_module m with
  | [] -> ()
  | errors ->
    raise
      (Driver.Compile.Compile_error
         (String.concat "\n" (List.map W2.Semcheck.error_to_string errors))));
  let mfuncs =
    Driver.Compile.function_masters ~masters:workers
      (List.map
         (fun (sec : W2.Ast.section) ->
           let func_rets = Driver.Compile.func_rets_of sec in
           List.map
             (fun f () ->
               let _work, mfunc, _ir =
                 Driver.Compile.compile_function ~level
                   ~globals:sec.W2.Ast.globals ~func_rets
                   ~section:sec.W2.Ast.sname f
               in
               mfunc)
             sec.W2.Ast.funcs)
         m.W2.Ast.sections)
  in
  (* Phase 4: sequential assembly and linking, section by section. *)
  let images =
    List.map2
      (fun (sec : W2.Ast.section) own ->
        ( sec.W2.Ast.sname,
          Warp.Link.link ~section:sec.W2.Ast.sname ~cells:sec.W2.Ast.cells own ))
      m.W2.Ast.sections mfuncs
  in
  { images }
