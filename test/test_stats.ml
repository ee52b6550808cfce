let feq = Alcotest.float 1e-9

let test_mean () =
  Alcotest.check feq "mean" 2.0 (Stats.mean [ 1.0; 2.0; 3.0 ]);
  Alcotest.check feq "mean single" 5.0 (Stats.mean [ 5.0 ])

let test_mean_empty () =
  Alcotest.check_raises "empty mean" (Invalid_argument "Stats.mean: empty list")
    (fun () -> ignore (Stats.mean []))

let test_stddev () =
  Alcotest.check feq "stddev" 1.0 (Stats.stddev [ 1.0; 2.0; 3.0 ]);
  Alcotest.check feq "stddev constant" 0.0 (Stats.stddev [ 4.0; 4.0; 4.0 ])

let test_within_fraction () =
  Alcotest.(check bool) "tight" true (Stats.within_fraction 0.1 [ 10.0; 10.5; 9.5 ]);
  Alcotest.(check bool) "loose" false (Stats.within_fraction 0.01 [ 10.0; 11.0 ]);
  Alcotest.(check bool) "empty" true (Stats.within_fraction 0.1 [])

let test_speedup () =
  Alcotest.check feq "speedup" 4.0 (Stats.speedup ~sequential:8.0 ~parallel:2.0);
  Alcotest.check_raises "zero parallel"
    (Invalid_argument "Stats.speedup: non-positive time") (fun () ->
      ignore (Stats.speedup ~sequential:1.0 ~parallel:0.0))

let test_percent () =
  Alcotest.check feq "percent" 25.0 (Stats.percent_of ~part:1.0 ~total:4.0);
  Alcotest.check feq "percent zero total" 0.0 (Stats.percent_of ~part:1.0 ~total:0.0)

let test_geomean () =
  Alcotest.check feq "geomean" 2.0 (Stats.geomean [ 1.0; 4.0 ])

let test_min_max () =
  Alcotest.check feq "min" 1.0 (Stats.minimum [ 3.0; 1.0; 2.0 ]);
  Alcotest.check feq "max" 3.0 (Stats.maximum [ 3.0; 1.0; 2.0 ])

let test_table_render () =
  let table =
    Stats.Table.make ~title:"t" ~columns:[ "x"; "y" ]
    |> fun t -> Stats.Table.add_row t [ "1"; "2.00" ]
  in
  let text = Stats.Table.render table in
  Alcotest.(check bool) "mentions title" true
    (String.length text > 0 && String.sub text 0 1 = "t");
  Alcotest.(check bool) "contains cell" true
    (Tutil.contains text "2.00")

let test_table_mismatch () =
  let table = Stats.Table.make ~title:"t" ~columns:[ "x"; "y" ] in
  Alcotest.check_raises "bad row"
    (Invalid_argument "Table.add_row: cell count does not match column count")
    (fun () -> ignore (Stats.Table.add_row table [ "only one" ]))

let prop_mean_bounds =
  QCheck.Test.make ~name:"mean lies between min and max" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 20) (float_range (-1000.) 1000.))
    (fun xs ->
      let m = Stats.mean xs in
      m >= Stats.minimum xs -. 1e-9 && m <= Stats.maximum xs +. 1e-9)

let prop_speedup_inverse =
  QCheck.Test.make ~name:"speedup of equal times is 1" ~count:100
    QCheck.(float_range 0.001 1000.)
    (fun t -> abs_float (Stats.speedup ~sequential:t ~parallel:t -. 1.0) < 1e-9)

let suites =
  [
    ( "stats",
      [
        Alcotest.test_case "mean" `Quick test_mean;
        Alcotest.test_case "mean empty" `Quick test_mean_empty;
        Alcotest.test_case "stddev" `Quick test_stddev;
        Alcotest.test_case "within fraction" `Quick test_within_fraction;
        Alcotest.test_case "speedup" `Quick test_speedup;
        Alcotest.test_case "percent" `Quick test_percent;
        Alcotest.test_case "geomean" `Quick test_geomean;
        Alcotest.test_case "min max" `Quick test_min_max;
        Alcotest.test_case "table render" `Quick test_table_render;
        Alcotest.test_case "table mismatch" `Quick test_table_mismatch;
        QCheck_alcotest.to_alcotest prop_mean_bounds;
        QCheck_alcotest.to_alcotest prop_speedup_inverse;
      ] );
  ]
