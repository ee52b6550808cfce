(** Shared diagnostics: structured findings produced by the {!Lint}
    source linter (phase 1, with the cross-module W010–W012) and carried
    through the compilation hierarchy.  IR-verifier findings are not
    diagnostics: they surface as [verify-ir:] lines or as compile-error
    text.

    Each diagnostic records the function it belongs to so a section
    master can merge per-function diagnostics back into file order when
    it combines results; {!encoded_bytes} is what the network
    simulation charges for that write-back. *)

type severity = Note | Warning | Error

type t = {
  d_code : string; (** stable short code, e.g. ["W003"] or ["W010"] *)
  d_severity : severity;
  d_loc : Loc.t;
  d_func : string option; (** originating function, if any *)
  d_message : string;
}

val make :
  ?func:string -> code:string -> severity:severity -> loc:Loc.t -> string -> t

val severity_to_string : severity -> string
val to_string : t -> string

val compare : t -> t -> int
(** File order — the order in which section masters merge. *)

val sort : t list -> t list
val is_error : t -> bool
val has_errors : t list -> bool
val count : severity -> t list -> int

val promote_warnings : t list -> t list
(** [-Werror]: warnings become errors; notes are untouched. *)

val for_func : string -> t list -> t list
(** Diagnostics attributed to one function. *)

val encoded_size : t -> int
(** Bytes one diagnostic occupies in a function master's write-back
    message (rendered line plus framing). *)

val encoded_bytes : t list -> int
