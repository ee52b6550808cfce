let feq = Alcotest.float 1e-9

let test_mean () =
  Alcotest.check feq "mean" 2.0 (Stats.mean [ 1.0; 2.0; 3.0 ]);
  Alcotest.check feq "mean single" 5.0 (Stats.mean [ 5.0 ])

let test_mean_empty () =
  Alcotest.check_raises "empty mean" (Invalid_argument "Stats.mean: empty list")
    (fun () -> ignore (Stats.mean []))

let test_speedup () =
  Alcotest.check feq "speedup" 4.0 (Stats.speedup ~sequential:8.0 ~parallel:2.0);
  Alcotest.check_raises "zero parallel"
    (Invalid_argument "Stats.speedup: non-positive time") (fun () ->
      ignore (Stats.speedup ~sequential:1.0 ~parallel:0.0))

let test_percent () =
  Alcotest.check feq "percent" 25.0 (Stats.percent_of ~part:1.0 ~total:4.0);
  Alcotest.check feq "percent zero total" 0.0 (Stats.percent_of ~part:1.0 ~total:0.0)

let test_maximum () =
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

(* --- the JSON printer --- *)

module Json = Stats.Json

let json = Alcotest.(check string)

let test_json_escapes () =
  json "short escapes and \\u00XX" "\"q\\\" b\\\\ n\\n t\\t c\\u0001 \xc3\xa9\"\n"
    (Json.to_string (Json.Str "q\" b\\ n\n t\t c\001 \xc3\xa9"));
  json "keys are escaped too" "{\n  \"a\\\"b\": 1\n}\n"
    (Json.to_string (Json.Obj [ ("a\"b", Json.Int 1) ]))

let test_json_layout () =
  json "depth 0 and 1 one member per line, depth 2+ inline"
    "{\n\
    \  \"a\": [\n\
    \    1,\n\
    \    {\"b\": [2, {\"c\": null}], \"d\": true}\n\
    \  ],\n\
    \  \"e\": {\n\
    \    \"f\": [false, \"g\"]\n\
    \  }\n\
     }\n"
    (Json.to_string
       (Json.Obj
          [
            ( "a",
              Json.List
                [
                  Json.Int 1;
                  Json.Obj
                    [
                      ("b", Json.List [ Json.Int 2; Json.Obj [ ("c", Json.Null) ] ]);
                      ("d", Json.Bool true);
                    ];
                ] );
            ("e", Json.Obj [ ("f", Json.List [ Json.Bool false; Json.Str "g" ]) ]);
          ]));
  json "a top-level array" "[\n  1,\n  2\n]\n"
    (Json.to_string (Json.List [ Json.Int 1; Json.Int 2 ]))

let test_json_empty () =
  json "empty object" "{}\n" (Json.to_string (Json.Obj []));
  json "empty array" "[]\n" (Json.to_string (Json.List []));
  json "empty at every depth"
    "{\n  \"a\": [],\n  \"b\": {\n    \"c\": {}\n  },\n  \"d\": [\n    {\"e\": []}\n  ]\n}\n"
    (Json.to_string
       (Json.Obj
          [
            ("a", Json.List []);
            ("b", Json.Obj [ ("c", Json.Obj []) ]);
            ("d", Json.List [ Json.Obj [ ("e", Json.List []) ] ]);
          ]))

let test_json_numbers () =
  let x = 0.1 +. 0.2 in
  json "Fixed 3" "0.300\n" (Json.to_string (Json.Fixed (3, x)));
  json "Exact round-trips" "0.30000000000000004\n" (Json.to_string (Json.Exact x));
  json "Fixed 0" "2\n" (Json.to_string (Json.Fixed (0, 2.4)));
  json "Int" "-7\n" (Json.to_string (Json.Int (-7)));
  List.iter
    (fun v ->
      json (Printf.sprintf "non-finite %h" v) "[null, null]\n"
        (String.concat ""
           [
             "[";
             String.trim (Json.to_string (Json.Exact v));
             ", ";
             String.trim (Json.to_string (Json.Fixed (3, v)));
             "]\n";
           ]))
    [ Float.nan; Float.infinity; Float.neg_infinity ]

(* A BENCH_*.json-shaped document: schema and header scalars, then
   arrays of one-line row objects, nested objects inline. *)
let test_json_bench_document () =
  json "bench document"
    "{\n\
    \  \"schema\": \"warpcc-bench-x/1\",\n\
    \  \"batch_threshold\": 2.0,\n\
    \  \"points\": [\n\
    \    {\"series\": \"tiny8p4\", \"pool\": 4, \"elapsed\": 12.346, \
     \"speedup\": 1.5000, \"buckets\": {\"compute\": 0.25, \"net\": 0.125}},\n\
    \    {\"series\": \"user\", \"pool\": 8, \"elapsed\": 3.000, \"speedup\": \
     0.7500, \"buckets\": {}}\n\
    \  ]\n\
     }\n"
    (Json.to_string
       (Json.Obj
          [
            ("schema", Json.Str "warpcc-bench-x/1");
            ("batch_threshold", Json.Fixed (1, 2.0));
            ( "points",
              Json.List
                [
                  Json.Obj
                    [
                      ("series", Json.Str "tiny8p4");
                      ("pool", Json.Int 4);
                      ("elapsed", Json.Fixed (3, 12.3456));
                      ("speedup", Json.Fixed (4, 1.5));
                      ( "buckets",
                        Json.Obj
                          [ ("compute", Json.Exact 0.25); ("net", Json.Exact 0.125) ] );
                    ];
                  Json.Obj
                    [
                      ("series", Json.Str "user");
                      ("pool", Json.Int 8);
                      ("elapsed", Json.Fixed (3, 3.0));
                      ("speedup", Json.Fixed (4, 0.75));
                      ("buckets", Json.Obj []);
                    ];
                ] );
          ]))

let prop_mean_bounds =
  QCheck.Test.make ~name:"mean lies between min and max" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 20) (float_range (-1000.) 1000.))
    (fun xs ->
      let m = Stats.mean xs in
      let lo = List.fold_left min (List.hd xs) xs in
      m >= lo -. 1e-9 && m <= Stats.maximum xs +. 1e-9)

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
        Alcotest.test_case "speedup" `Quick test_speedup;
        Alcotest.test_case "percent" `Quick test_percent;
        Alcotest.test_case "maximum" `Quick test_maximum;
        Alcotest.test_case "table render" `Quick test_table_render;
        Alcotest.test_case "table mismatch" `Quick test_table_mismatch;
        Alcotest.test_case "json escapes" `Quick test_json_escapes;
        Alcotest.test_case "json layout by depth" `Quick test_json_layout;
        Alcotest.test_case "json empty containers" `Quick test_json_empty;
        Alcotest.test_case "json numbers" `Quick test_json_numbers;
        Alcotest.test_case "json bench document" `Quick test_json_bench_document;
        QCheck_alcotest.to_alcotest prop_mean_bounds;
        QCheck_alcotest.to_alcotest prop_speedup_inverse;
      ] );
  ]
