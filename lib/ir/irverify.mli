(** IR invariant verifier, in the spirit of LLVM's [-verify-each].

    The driver runs {!check_func} once at the end of phase 2
    unconditionally; [Opt.optimize ~verify_each:true] re-runs it after
    every pass so a violation names the pass that introduced it.

    Checked invariants: CFG well-formedness (non-empty block array,
    terminator targets in range), register sanity (indices within
    [reg_ty], operand/def classes agreeing with [reg_ty],
    [Sel]/[Icmp]/[Branch] condition typing), def-before-use via a
    forward may-be-uninitialized dataflow, declared arrays with
    constant indices in bounds, and — per section — call
    arity/argument/result agreement.  A message, and the rendered
    instruction it names, is built only when a violation is recorded. *)

type violation = {
  vi_func : string;
  vi_block : int; (** [-1] for function-level findings *)
  vi_pass : string option; (** the pass after which the check failed *)
  vi_msg : string;
}

exception Invalid of violation list
(** Raised by [Opt.optimize ~verify_each:true] when a pass breaks an
    invariant. *)

val violation_to_string : violation -> string

val check_func : ?pass:string -> Ir.func -> violation list
(** All violations in one function ([[]] = valid). *)

val check_calls : Ir.section -> violation list
(** Cross-function call-signature agreement within a section. *)

val check_section : Ir.section -> violation list
(** {!check_func} on every function plus {!check_calls}. *)
