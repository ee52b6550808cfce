(** SARIF 2.1.0 export of {!Diag} diagnostics.

    SARIF (Static Analysis Results Interchange Format) is the
    interchange format code hosts and editors ingest for static
    analysis findings; exporting it lets [warpcc analyze] results
    surface as annotations in CI.  One run, one tool ([warpcc]), one
    rule per distinct diagnostic code (the linter's W001–W009, the
    cross-module W010–W012, and the IR verifier's V-codes pass through
    with a generic description). *)

val version : string
(** ["2.1.0"]. *)

val to_string : Diag.t list -> string
(** A complete SARIF log: rule metadata for every code that occurs,
    one result per diagnostic with its physical location (omitted for
    diagnostics at the dummy location), severities mapped
    [Note]→[note], [Warning]→[warning], [Error]→[error].  Valid (with
    an empty [results] array) even for an empty diagnostic list. *)
