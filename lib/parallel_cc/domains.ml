(* Real multicore execution of the master / section-master /
   function-master hierarchy using OCaml domains.

   The discrete-event simulation reproduces the paper's measurements on
   a period-accurate host; this driver demonstrates that the same
   orchestration runs the *actual* compiler in parallel on today's
   hardware: one domain per function master, FCFS over a bounded pool,
   sections independent, phase 1 and phase 4 sequential — exactly the
   structure of figure 2.  The calling domain is one of the function
   masters: it spawns [workers − 1] domains, queues every function,
   compiles from the queue itself until it is empty, and only then
   blocks.  A blocked master would leave one core idle, and on a small
   machine that idle core costs more than cheap functions gain.

   A function master that raises does not take its worker down: every
   task stores [Ok mfunc | Error exn], the master blocks on a countdown
   until all tasks have reported, and then re-raises the first error in
   source order — the exception the sequential compiler raises.

   Wall-clock speedups obviously depend on available cores; the tests
   only check functional equivalence. *)

type result = { images : (string * Warp.Mcode.image) list (* per section *) }

(* A bounded pool of worker domains processing thunks FCFS — the analog
   of the workstation pool.  The domain that submits can work the queue
   too ([drain]). *)
module Pool = struct
  type task = Task of (unit -> unit) | Stop

  type t = {
    queue : task Queue.t;
    mutex : Mutex.t;
    nonempty : Condition.t;
    domains : unit Domain.t list;
  }

  let worker pool () =
    let rec loop () =
      Mutex.lock pool.mutex;
      let rec take () =
        match Queue.take_opt pool.queue with
        | Some task -> task
        | None ->
          Condition.wait pool.nonempty pool.mutex;
          take ()
      in
      let task = take () in
      Mutex.unlock pool.mutex;
      match task with
      | Stop -> ()
      | Task f ->
        f ();
        loop ()
    in
    loop ()

  (* [n] spawned domains; [n = 0] leaves all the work to [drain]. *)
  let create n =
    let pool =
      {
        queue = Queue.create ();
        mutex = Mutex.create ();
        nonempty = Condition.create ();
        domains = [];
      }
    in
    { pool with domains = List.init (max 0 n) (fun _ -> Domain.spawn (worker pool)) }

  (* Run queued tasks on the calling domain until the queue is empty. *)
  let rec drain pool =
    Mutex.lock pool.mutex;
    let task = Queue.take_opt pool.queue in
    Mutex.unlock pool.mutex;
    match task with
    | Some (Task f) ->
      f ();
      drain pool
    | Some Stop | None -> ()

  let submit pool f =
    Mutex.lock pool.mutex;
    Queue.push (Task f) pool.queue;
    Condition.signal pool.nonempty;
    Mutex.unlock pool.mutex

  let shutdown pool =
    Mutex.lock pool.mutex;
    List.iter (fun _ -> Queue.push Stop pool.queue) pool.domains;
    Condition.broadcast pool.nonempty;
    Mutex.unlock pool.mutex;
    List.iter Domain.join pool.domains
end

(* A countdown latch: [wait] blocks until [count_down] has been called
   as many times as the latch was created with. *)
module Latch = struct
  type t = { mutable left : int; mutex : Mutex.t; zero : Condition.t }

  let create n = { left = n; mutex = Mutex.create (); zero = Condition.create () }

  let count_down l =
    Mutex.lock l.mutex;
    l.left <- l.left - 1;
    if l.left <= 0 then Condition.broadcast l.zero;
    Mutex.unlock l.mutex

  let wait l =
    Mutex.lock l.mutex;
    while l.left > 0 do
      Condition.wait l.zero l.mutex
    done;
    Mutex.unlock l.mutex
end

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
  (* The calling domain is one of the [workers] function masters. *)
  let pool = Pool.create (workers - 1) in
  let latch = Latch.create (W2.Ast.func_count m) in
  (* Section masters fork function masters; results are collected in
     per-function slots (no ordering dependence). *)
  let sections =
    List.map
      (fun (sec : W2.Ast.section) ->
        let funcs = Array.of_list sec.W2.Ast.funcs in
        let slots = Array.make (Array.length funcs) (Error Exit) in
        let func_rets = Driver.Compile.func_rets_of sec in
        Array.iteri
          (fun i f ->
            Pool.submit pool (fun () ->
                (slots.(i) <-
                   try
                     let _work, mfunc, _ir =
                       Driver.Compile.compile_function ~level
                         ~globals:sec.W2.Ast.globals ~func_rets
                         ~section:sec.W2.Ast.sname f
                     in
                     Ok mfunc
                   with e -> Error e);
                Latch.count_down latch))
          funcs;
        (sec, slots))
      m.W2.Ast.sections
  in
  (* The master compiles functions too until none is left queued, then
     waits for the ones still running elsewhere. *)
  Pool.drain pool;
  Latch.wait latch;
  Pool.shutdown pool;
  List.iter
    (fun (_, slots) ->
      Array.iter (function Error e -> raise e | Ok _ -> ()) slots)
    sections;
  (* Phase 4: sequential assembly and linking. *)
  let images =
    List.map
      (fun ((sec : W2.Ast.section), slots) ->
        let mfuncs = Array.to_list slots |> List.map Result.get_ok in
        ( sec.W2.Ast.sname,
          Warp.Link.link ~section:sec.W2.Ast.sname ~cells:sec.W2.Ast.cells mfuncs ))
      sections
  in
  { images }
