(** SARIF 2.1.0 export of {!Diag} diagnostics.

    SARIF (Static Analysis Results Interchange Format) is the
    interchange format code hosts and editors ingest for static
    analysis findings; exporting it lets [warpcc analyze] results
    surface as annotations in CI.  One run, one tool ([warpcc]), one
    rule per distinct diagnostic code (the linter's W001–W009 and the
    cross-module W010–W012; any other code passes through with a
    generic description).  IR-verifier findings are not diagnostics and
    never appear here. *)

val version : string
(** ["2.1.0"]. *)

val to_string : Diag.t list -> string
(** A complete SARIF log: rule metadata for every code that occurs,
    one result per diagnostic with its physical location (omitted for
    diagnostics at the dummy location), severities mapped
    [Note]→[note], [Warning]→[warning], [Error]→[error].  Valid (with
    an empty [results] array) even for an empty diagnostic list. *)
