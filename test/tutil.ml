(* Shared helpers for the test suites. *)

(* Substring test (OCaml's stdlib has none). *)
let contains haystack needle =
  let nlen = String.length needle in
  let hlen = String.length haystack in
  if nlen = 0 then true
  else
    let rec scan i =
      if i + nlen > hlen then false
      else if String.sub haystack i nlen = needle then true
      else scan (i + 1)
    in
    scan 0

(* Compare two interpreter results for Alcotest. *)
let value_testable : W2.Interp.value Alcotest.testable =
  let rec eq a b =
    match (a, b) with
    | W2.Interp.Vint x, W2.Interp.Vint y -> x = y
    | W2.Interp.Vfloat x, W2.Interp.Vfloat y ->
      (Float.is_nan x && Float.is_nan y)
      || abs_float (x -. y) <= 1e-9 *. (1.0 +. abs_float x +. abs_float y)
    | W2.Interp.Vbool x, W2.Interp.Vbool y -> x = y
    | W2.Interp.Varray x, W2.Interp.Varray y ->
      Array.length x = Array.length y
      && Array.for_all2 (fun a b -> eq a b) x y
    | _ -> false
  in
  Alcotest.testable
    (fun fmt v -> Format.pp_print_string fmt (W2.Interp.value_to_string v))
    eq

(* [dune runtest] runs in _build/default/test (examples are a sibling
   via the dune deps); [dune exec] runs from the project root. *)
let examples_dir () =
  List.find Sys.file_exists [ Filename.concat ".." "examples"; "examples" ]

let read_example f =
  In_channel.with_open_bin (Filename.concat (examples_dir ()) f) In_channel.input_all

(* The shipped examples as (file name, source), sorted by name. *)
let examples =
  lazy
    (Sys.readdir (examples_dir ()) |> Array.to_list
     |> List.filter (fun f -> Filename.check_suffix f ".w2")
     |> List.sort compare
     |> List.map (fun f -> (f, read_example f)))

(* A shipped example compiled under its file name. *)
let example name = Driver.Compile.compile_source ~file:name (read_example name)
