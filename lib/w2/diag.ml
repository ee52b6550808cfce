(* Shared diagnostics: the structured findings that static checks
   produce and that the parallel host carries around.

   Phase 1 (the master) emits lint warnings alongside the semantic
   checker.  IR-verifier findings are not diagnostics: they surface as
   [verify-ir:] lines or as compile-error text.
   Each diagnostic records which function it belongs to so that a
   section master can merge per-function diagnostics back into file
   order when it "combines results and diagnostics" — the byte size of
   the rendered findings is what the network simulation charges for
   that write-back. *)

type severity = Note | Warning | Error

type t = {
  d_code : string; (* stable short code, e.g. "W003" or "W010" *)
  d_severity : severity;
  d_loc : Loc.t;
  d_func : string option; (* originating function, if any *)
  d_message : string;
}

let make ?func ~code ~severity ~loc message =
  { d_code = code; d_severity = severity; d_loc = loc; d_func = func; d_message = message }

let severity_to_string = function
  | Note -> "note"
  | Warning -> "warning"
  | Error -> "error"

let to_string d =
  Printf.sprintf "%s: %s: %s [%s]" (Loc.to_string d.d_loc)
    (severity_to_string d.d_severity) d.d_message d.d_code

(* File order, as the section masters merge them. *)
let compare a b =
  match Loc.compare a.d_loc b.d_loc with
  | 0 -> Stdlib.compare (a.d_code, a.d_message) (b.d_code, b.d_message)
  | c -> c

let sort ds = List.sort compare ds

let is_error d = d.d_severity = Error
let has_errors ds = List.exists is_error ds
let count severity ds = List.length (List.filter (fun d -> d.d_severity = severity) ds)

(* -Werror: promote warnings (notes stay notes). *)
let promote_warnings ds =
  List.map
    (fun d -> if d.d_severity = Warning then { d with d_severity = Error } else d)
    ds

(* Diagnostics belonging to one function, in file order. *)
let for_func name ds = List.filter (fun d -> d.d_func = Some name) ds

(* Bytes a diagnostic occupies in the function master's write-back
   message: the rendered line plus a little framing.  The cost model
   adds these to the per-task output traffic. *)
let framing_bytes = 16
let encoded_size d = String.length (to_string d) + framing_bytes
let encoded_bytes ds = List.fold_left (fun acc d -> acc + encoded_size d) 0 ds
