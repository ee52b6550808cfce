(* ASCII rendering of the tables that the benchmark harness and the CLI
   print.  Every figure of the paper is reproduced as a table whose rows
   are the x-axis points (number of functions, processors, or lines of
   code) and whose columns are the measured series. *)

type t = {
  title : string;
  columns : string list;
  rows : string list list; (* each row has [List.length columns] cells *)
}

let make ~title ~columns = { title; columns; rows = [] }

let add_row table cells =
  if List.length cells <> List.length table.columns then
    invalid_arg "Table.add_row: cell count does not match column count";
  { table with rows = table.rows @ [ cells ] }

let column_widths table =
  let update widths cells =
    List.map2 (fun w c -> max w (String.length c)) widths cells
  in
  let init = List.map String.length table.columns in
  List.fold_left update init table.rows

let render table =
  let widths = column_widths table in
  let buf = Buffer.create 256 in
  let pad s w = s ^ String.make (w - String.length s) ' ' in
  let hline () =
    List.iter (fun w -> Buffer.add_string buf ("+" ^ String.make (w + 2) '-')) widths;
    Buffer.add_string buf "+\n"
  in
  let row cells =
    List.iter2
      (fun c w -> Buffer.add_string buf ("| " ^ pad c w ^ " "))
      cells widths;
    Buffer.add_string buf "|\n"
  in
  Buffer.add_string buf (table.title ^ "\n");
  hline ();
  row table.columns;
  hline ();
  List.iter row table.rows;
  hline ();
  Buffer.contents buf

let print table = print_string (render table)
