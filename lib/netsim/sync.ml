(* Synchronization primitives on top of the DES engine: mailboxes
   (message queues), counting semaphores / FCFS resources, and join
   counters.  These model UNIX message-based synchronization between
   the master processes of the parallel compiler. *)

(* --- mailbox: unbounded message queue --- *)

type 'a mailbox = {
  messages : 'a Queue.t;
  waiters : ('a -> unit) Queue.t;
}

let mailbox () = { messages = Queue.create (); waiters = Queue.create () }

let send (mb : 'a mailbox) (v : 'a) =
  match Queue.take_opt mb.waiters with
  | Some wake -> wake v
  | None -> Queue.push v mb.messages

(* Blocks until a message is available. *)
let recv (mb : 'a mailbox) : 'a =
  match Queue.take_opt mb.messages with
  | Some v -> v
  | None -> Des.suspend (fun wake -> Queue.push wake mb.waiters)

(* --- FCFS resource with [capacity] servers --- *)

type resource = {
  capacity : int;
  mutable in_use : int;
  queue : (unit -> unit) Queue.t;
}

let resource capacity =
  if capacity < 1 then invalid_arg "Sync.resource: capacity must be positive";
  { capacity; in_use = 0; queue = Queue.create () }

let acquire (r : resource) =
  if r.in_use < r.capacity then r.in_use <- r.in_use + 1
  else Des.suspend (fun wake -> Queue.push (fun () -> wake ()) r.queue)

let release (r : resource) =
  match Queue.take_opt r.queue with
  | Some wake -> wake () (* hand the slot over directly *)
  | None -> r.in_use <- r.in_use - 1

(* Hold the resource for [amount] simulated seconds. *)
let use sim (r : resource) amount =
  acquire r;
  Des.delay sim amount;
  release r

(* --- one-shot event: set once, any number of waiters --- *)

(* The dependence-gated dispatch in [Parrun] parks function masters on
   these.  Both operations are free of DES activity on the fast path:
   [await] on an already-set event returns without suspending, and
   [set] with no waiters is pure bookkeeping — so a DAG with no edges
   leaves the event schedule bit-identical to ungated dispatch. *)

type event = { mutable fired : bool; event_waiters : (unit -> unit) Queue.t }

let event () = { fired = false; event_waiters = Queue.create () }
let is_set (e : event) = e.fired

(* Idempotent: late [set]s (e.g. a straggler attempt finishing after a
   re-dispatch already completed the task) are no-ops. *)
let set (e : event) =
  if not e.fired then begin
    e.fired <- true;
    Queue.iter (fun wake -> wake ()) e.event_waiters;
    Queue.clear e.event_waiters
  end

let await (e : event) =
  if not e.fired then
    Des.suspend (fun wake -> Queue.push (fun () -> wake ()) e.event_waiters)

(* --- join counter: wait until [expected] signals have arrived --- *)

type join = {
  mutable expected : int;
  mutable arrived : int;
  mutable waiter : (unit -> unit) option;
}

let join expected =
  if expected < 0 then invalid_arg "Sync.join: negative count";
  { expected; arrived = 0; waiter = None }

let signal (j : join) =
  j.arrived <- j.arrived + 1;
  if j.arrived >= j.expected then
    match j.waiter with
    | Some wake ->
      j.waiter <- None;
      wake ()
    | None -> ()

(* Blocks until all signals have arrived (returns immediately if they
   already have).  Single waiter, like a UNIX parent waiting for its
   children. *)
let wait (j : join) =
  if j.arrived < j.expected then
    Des.suspend (fun wake ->
        assert (j.waiter = None);
        j.waiter <- Some (fun () -> wake ()))
