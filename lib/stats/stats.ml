(* Small statistics helpers shared by the benchmark harness, the examples
   and the experiment driver.  The paper (section 4.2) reports the
   arithmetic mean of repeated measurements; [mean] is that average. *)

let mean xs =
  match xs with
  | [] -> invalid_arg "Stats.mean: empty list"
  | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let maximum xs =
  match xs with
  | [] -> invalid_arg "Stats.maximum: empty list"
  | x :: rest -> List.fold_left max x rest

(* Speedup of a parallel run over a sequential baseline. *)
let speedup ~sequential ~parallel =
  if parallel <= 0.0 then invalid_arg "Stats.speedup: non-positive time";
  sequential /. parallel

(* Relative overhead as a percentage of the parallel elapsed time, the
   unit of figures 8-10. *)
let percent_of ~part ~total =
  if total = 0.0 then 0.0 else 100.0 *. part /. total

module Table = Table
module Json = Json
