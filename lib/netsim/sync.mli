(** Synchronization primitives on top of the DES engine: mailboxes
    (message queues), FCFS resources, and join counters.  These model
    the UNIX message-based synchronization between the master processes
    of the parallel compiler (paper, section 3.3). *)

(** {1 Mailboxes} *)

type 'a mailbox
(** An unbounded FIFO message queue with blocking receive. *)

val mailbox : unit -> 'a mailbox

val send : 'a mailbox -> 'a -> unit
(** Deliver a message; wakes one waiting receiver, never blocks. *)

val recv : 'a mailbox -> 'a
(** Take the oldest message, blocking the calling process while the
    mailbox is empty. *)

(** {1 FCFS resources} *)

type resource = {
  capacity : int;
  mutable in_use : int;
  queue : (unit -> unit) Queue.t;
}
(** A server pool with [capacity] slots and a FIFO wait queue. *)

val resource : int -> resource
(** @raise Invalid_argument when the capacity is not positive. *)

val use : Des.t -> resource -> float -> unit
(** [use sim r seconds]: take a slot, blocking FCFS while all slots are
    busy, hold it for [seconds] of virtual time, then free it (handing
    it directly to the oldest waiter, if any). *)

(** {1 One-shot events} *)

type event
(** A set-once flag with any number of waiting processes — the
    primitive behind dependence-gated dispatch: a task's event is set
    when its output is written back, and dependent tasks {!await} it
    before claiming a station.  Neither operation touches the DES on
    the fast path ([await] on a set event does not suspend; [set] with
    no waiters schedules nothing), so an edge-free DAG leaves the
    event schedule bit-identical to ungated dispatch. *)

val event : unit -> event

val set : event -> unit
(** Fire the event, waking every waiter; idempotent (late calls from
    superseded straggler attempts are no-ops). *)

val await : event -> unit
(** Block until the event fires; returns immediately if it already
    has. *)

val is_set : event -> bool

(** {1 Join counters} *)

type join
(** A parent-waits-for-children barrier: created with an expected
    count, released when that many {!signal}s have arrived. *)

val join : int -> join
(** @raise Invalid_argument on a negative count. *)

val signal : join -> unit
(** One child is done. *)

val wait : join -> unit
(** Block the (single) waiting process until all signals have arrived;
    returns immediately if they already have. *)
