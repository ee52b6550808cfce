(* SARIF 2.1.0 rendering of Diag diagnostics. *)

let version = "2.1.0"

(* Short rule descriptions, stable across runs so SARIF consumers can
   key fingerprints off them. *)
let rule_description = function
  | "W001" -> "Unused variable"
  | "W002" -> "Unused parameter"
  | "W003" -> "Dead store"
  | "W004" -> "Unreachable statement after a return"
  | "W005" -> "Assignment into an enclosing for-loop variable"
  | "W006" -> "Constant condition"
  | "W007" -> "Function never called from its section"
  | "W008" -> "Section global written by one function and accessed by a sibling"
  | "W009" -> "Channel with sends but no receives"
  | "W010" -> "Import declaration disagrees with the link"
  | "W011" -> "Cross-module write to a global another module localizes"
  | "W012" -> "Exported function never imported"
  | _ -> "warpcc diagnostic"

let level_of = function
  | Diag.Note -> "note"
  | Diag.Warning -> "warning"
  | Diag.Error -> "error"

let is_dummy (l : Loc.t) = l = Loc.dummy

let to_string diags =
  let open Stats.Json in
  let rule code =
    Obj [ ("id", Str code);
          ("shortDescription", Obj [ ("text", Str (rule_description code)) ]) ]
  in
  let location (l : Loc.t) =
    let region =
      Obj [ ("startLine", Int (max 1 l.line)); ("startColumn", Int (max 1 l.col)) ]
    in
    Obj [ ( "physicalLocation",
            Obj [ ("artifactLocation", Obj [ ("uri", Str l.file) ]); ("region", region) ] ) ]
  in
  let result (d : Diag.t) =
    let text =
      match d.d_func with
      | Some f -> Printf.sprintf "[%s] %s" f d.d_message
      | None -> d.d_message
    in
    Obj
      ([ ("ruleId", Str d.d_code); ("level", Str (level_of d.d_severity));
         ("message", Obj [ ("text", Str text) ]) ]
      @ if is_dummy d.d_loc then [] else [ ("locations", List [ location d.d_loc ]) ])
  in
  let codes = List.sort_uniq compare (List.map (fun (d : Diag.t) -> d.d_code) diags) in
  let driver =
    Obj [ ("name", Str "warpcc"); ("version", Str "1.0.0");
          ("informationUri", Str "https://github.com/warpcc/warpcc");
          ("rules", List (List.map rule codes)) ]
  in
  to_string
    (Obj [ ("$schema", Str "https://json.schemastore.org/sarif-2.1.0.json");
           ("version", Str version);
           ( "runs",
             List [ Obj [ ("tool", Obj [ ("driver", driver) ]);
                          ("results", List (List.map result diags)) ] ] ) ])
