(* Small statistics helpers shared by the benchmark harness, the examples
   and the experiment driver.  The paper (section 4.2) reports the
   arithmetic mean of repeated measurements and notes that individual
   deviations stay within 10% of the average; [mean], [stddev] and
   [within_fraction] implement exactly the checks we need to mirror
   that protocol. *)

let mean xs =
  match xs with
  | [] -> invalid_arg "Stats.mean: empty list"
  | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let variance xs =
  match xs with
  | [] | [ _ ] -> 0.0
  | _ ->
    let m = mean xs in
    let sq = List.fold_left (fun acc x -> acc +. ((x -. m) ** 2.0)) 0.0 xs in
    sq /. float_of_int (List.length xs - 1)

let stddev xs = sqrt (variance xs)

(* True when every sample lies within [frac] of the mean, the paper's
   acceptance criterion for a measurement series. *)
let within_fraction frac xs =
  match xs with
  | [] -> true
  | _ ->
    let m = mean xs in
    if m = 0.0 then List.for_all (fun x -> x = 0.0) xs
    else List.for_all (fun x -> abs_float (x -. m) /. abs_float m <= frac) xs

let minimum xs =
  match xs with
  | [] -> invalid_arg "Stats.minimum: empty list"
  | x :: rest -> List.fold_left min x rest

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

(* Geometric mean, used to summarise speedups across programs. *)
let geomean xs =
  match xs with
  | [] -> invalid_arg "Stats.geomean: empty list"
  | _ ->
    let logs = List.fold_left (fun acc x -> acc +. log x) 0.0 xs in
    exp (logs /. float_of_int (List.length xs))
module Table = Table
module Json = Json
