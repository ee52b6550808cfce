(** Linear-scan register allocation (Poletto/Sarkar style).

    Virtual registers get single conservative live intervals over a
    linearization of the blocks; interval overlap soundly approximates
    interference under any control flow.  Under pressure, the active
    interval with the furthest end is spilled to a per-activation
    [$spill] array; allocation restarts after rewriting and terminates
    because every restart strictly grows the spill set. *)

type result = {
  func : Midend.Ir.func; (** registers now physical *)
  param_locs : int list; (** where this function's arguments arrive *)
  spilled : int; (** spill slots allocated *)
}

exception Too_many_params of string

type interval = {
  vreg : int;
  lo : int;
  hi : int; (** half open: [\[lo, hi)] *)
  is_param : bool;
}
(** A virtual register's live interval over the linearized blocks. *)

val insert_by_hi : interval -> interval list -> interval list
(** [insert_by_hi itv active], for [active] sorted by [hi], puts [itv]
    where [List.stable_sort] by [hi] of [itv :: active] would: before
    the first interval that ends no earlier.  The allocator keeps its
    active set sorted this way instead of re-sorting it. *)

val copy_func : Midend.Ir.func -> Midend.Ir.func
(** Structural copy (blocks and register table); allocation mutates its
    input copy, never the caller's function. *)

val run : ?reg_limit:int -> Midend.Ir.func -> result
(** Allocate; [reg_limit] defaults to {!Machine.num_allocatable} (low
    values exercise spilling).
    @raise Too_many_params if parameters alone exceed the registers. *)
