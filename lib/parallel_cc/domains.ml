(* Real multicore execution of the master / section-master /
   function-master hierarchy using OCaml domains.

   The discrete-event simulation reproduces the paper's measurements on
   a period-accurate host; this driver demonstrates that the same
   orchestration runs the *actual* compiler in parallel on today's
   hardware: sections independent, phase 1 and phase 4 sequential —
   exactly the structure of figure 2.  Phase 1 fixes the whole task set
   before any function master starts, so the masters need no queue:
   every function of every section sits in one source-order array, and
   each master takes the next task with [fetch_and_add] on one shared
   index until none is left — FCFS, as in the paper.  The calling
   domain is one of the [workers] masters, so a small machine keeps no
   core idle while the others compile; [Domain.join] is the only wait.

   A function master that raises does not take its worker down: every
   task stores [Ok mfunc | Error exn] in its own slot, and after the
   join the first error in source order is re-raised — the exception
   the sequential compiler raises.

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
  (* Every function of every section, in source order. *)
  let tasks =
    List.concat_map
      (fun (sec : W2.Ast.section) ->
        let func_rets = Driver.Compile.func_rets_of sec in
        List.map
          (fun f () ->
            let _work, mfunc, _ir =
              Driver.Compile.compile_function ~level ~globals:sec.W2.Ast.globals
                ~func_rets ~section:sec.W2.Ast.sname f
            in
            mfunc)
          sec.W2.Ast.funcs)
      m.W2.Ast.sections
    |> Array.of_list
  in
  let slots = Array.make (Array.length tasks) (Error Exit) in
  let next = Atomic.make 0 in
  let rec master () =
    let i = Atomic.fetch_and_add next 1 in
    if i < Array.length tasks then begin
      (slots.(i) <- try Ok (tasks.(i) ()) with e -> Error e);
      master ()
    end
  in
  let spawned = List.init (max 0 (workers - 1)) (fun _ -> Domain.spawn master) in
  master ();
  List.iter Domain.join spawned;
  let mfuncs = Array.map (function Ok mf -> mf | Error e -> raise e) slots in
  (* Phase 4: sequential assembly and linking, section by section. *)
  let first = ref 0 in
  let images =
    List.map
      (fun (sec : W2.Ast.section) ->
        let n = List.length sec.W2.Ast.funcs in
        let own = Array.to_list (Array.sub mfuncs !first n) in
        first := !first + n;
        ( sec.W2.Ast.sname,
          Warp.Link.link ~section:sec.W2.Ast.sname ~cells:sec.W2.Ast.cells own ))
      m.W2.Ast.sections
  in
  { images }
