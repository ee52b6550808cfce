(* Tests for the compiler driver: the four-phase pipeline with work
   accounting, and the cost model. *)

let compile_size size =
  Driver.Compile.compile_module
    (W2.Gen.module_of_function (W2.Gen.sized_function ~name:(W2.Gen.size_name size) size))

let test_work_measured () =
  let mw = compile_size W2.Gen.Small in
  let fw = List.hd (Driver.Compile.all_funcs mw) in
  Alcotest.(check bool) "tokens" true (fw.Driver.Compile.fw_tokens > 0);
  Alcotest.(check bool) "opt work" true (fw.Driver.Compile.fw_opt_work > 0);
  Alcotest.(check bool) "sched work" true (fw.Driver.Compile.fw_sched_work > 0);
  Alcotest.(check bool) "wides" true (fw.Driver.Compile.fw_wides > 0);
  Alcotest.(check bool) "image bytes" true (Driver.Compile.total_image_bytes mw > 0)

let test_loc_matches_gen () =
  List.iter
    (fun size ->
      let mw = compile_size size in
      let fw = List.hd (Driver.Compile.all_funcs mw) in
      Alcotest.(check int)
        (W2.Gen.size_name size)
        (W2.Gen.size_lines size) fw.Driver.Compile.fw_loc)
    W2.Gen.all_sizes

let test_phase23_monotone_in_size () =
  (* Bigger functions must cost more in the simulated model — the
     property the whole reproduction rests on. *)
  let m = Driver.Cost.default in
  let times =
    List.map
      (fun size ->
        let mw = compile_size size in
        Driver.Cost.phase23_seconds m (List.hd (Driver.Compile.all_funcs mw)))
      W2.Gen.all_sizes
  in
  let rec increasing = function
    | a :: (b :: _ as rest) -> a < b && increasing rest
    | _ -> true
  in
  Alcotest.(check bool)
    (String.concat ", " (List.map (Printf.sprintf "%.0fs") times))
    true (increasing times)

let test_calibration_anchors () =
  (* Section 4.3: ~300-line functions compile in 19-22 minutes; 30-45
     line functions in 2-6 minutes.  Nominal times must land in a band
     around those anchors (memory slowdowns push them further up). *)
  let m = Driver.Cost.default in
  let mw = Driver.Compile.compile_module (W2.Gen.user_program ()) in
  List.iter
    (fun (fw : Driver.Compile.func_work) ->
      let t = Driver.Cost.phase23_seconds m fw in
      if fw.Driver.Compile.fw_loc >= 250 then
        Alcotest.(check bool)
          (Printf.sprintf "%s (%d loc) = %.0fs in [600, 1500]" fw.Driver.Compile.fw_name
             fw.Driver.Compile.fw_loc t)
          true
          (t >= 600.0 && t <= 1500.0)
      else
        Alcotest.(check bool)
          (Printf.sprintf "%s (%d loc) = %.0fs in [40, 420]" fw.Driver.Compile.fw_name
             fw.Driver.Compile.fw_loc t)
          true
          (t >= 40.0 && t <= 420.0))
    (Driver.Compile.all_funcs mw)

let test_parse_under_five_percent () =
  (* Section 3.4: a sequential compiler spends less than 5% of its time
     parsing. *)
  let m = Driver.Cost.default in
  List.iter
    (fun size ->
      let mw = compile_size size in
      let p1 = Driver.Cost.phase1_seconds m mw in
      let total =
        p1
        +. List.fold_left
             (fun acc fw -> acc +. Driver.Cost.phase23_seconds m fw)
             0.0 (Driver.Compile.all_funcs mw)
        +. Driver.Cost.phase4_seconds m mw
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s: parse %.1f%%" (W2.Gen.size_name size) (100.0 *. p1 /. total))
        true
        (p1 /. total < 0.05))
    [ W2.Gen.Small; W2.Gen.Medium; W2.Gen.Large; W2.Gen.Huge ]

let test_slowdown_shape () =
  let m = Driver.Cost.default in
  let s p k = Driver.Cost.slowdown m ~pressure:p ~pagers:k in
  Alcotest.(check (float 1e-9)) "no pressure" 1.0 (s 0.3 1);
  Alcotest.(check bool) "gc region" true (s 0.8 1 > 1.0);
  Alcotest.(check bool) "paging worse than gc" true (s 1.2 1 > s 0.9 1);
  Alcotest.(check bool) "shared paging compounds" true (s 1.1 8 > s 1.1 1);
  Alcotest.(check bool) "capped" true (s 5.0 20 <= m.Driver.Cost.max_slowdown)

let test_sequential_mb_grows () =
  let m = Driver.Cost.default in
  let mw = compile_size W2.Gen.Medium in
  let early = Driver.Cost.sequential_mb m mw ~compiled_loc:0 ~current_loc:100 in
  let late = Driver.Cost.sequential_mb m mw ~compiled_loc:700 ~current_loc:100 in
  Alcotest.(check bool) "heap grows" true (late > early)

let test_compile_error_reported () =
  match Driver.Compile.compile_source "module m section s cells 1 end end" with
  | exception Driver.Compile.Compile_error _ -> ()
  | _ -> Alcotest.fail "expected a compile error"

(* A lexing error is a compile error located in the named file, like a
   parse error, not a lexer exception located in the source string. *)
let test_lex_error_located () =
  let src =
    {|module m
  section s cells 1
  function f()
    var x : float;
  begin
    x := 1.0e+;
  end
  end
end
|}
  in
  match Driver.Compile.compile_source ~file:"bad.w2" src with
  | exception Driver.Compile.Compile_error msg ->
    Alcotest.(check string)
      "file, line and column" "bad.w2:6:15: malformed exponent" msg
  | _ -> Alcotest.fail "expected a lexing error"

let test_semantic_error_reported () =
  let src =
    {|
module m
  section s cells 1
  function f() : int
  begin
    return x;
  end
  end
end
|}
  in
  match Driver.Compile.compile_source src with
  | exception Driver.Compile.Compile_error msg ->
    Alcotest.(check bool) "mentions x" true (Tutil.contains msg "undeclared variable 'x'")
  | _ -> Alcotest.fail "expected a semantic error"

let test_compiled_images_runnable () =
  (* The driver's output is a real image: run it. *)
  let mw = compile_size W2.Gen.Small in
  let sw = List.hd mw.Driver.Compile.mw_sections in
  let result, _ =
    Warp.Cellsim.run ~fuel:50_000_000 sw.Driver.Compile.sw_image ~name:"f_small"
      ~args:[ Midend.Ir_interp.Vi 3; Midend.Ir_interp.Vi 1 ]
  in
  match result with
  | Some (Midend.Ir_interp.Vf _) -> ()
  | _ -> Alcotest.fail "driver image did not produce a float"

let suites =
  [
    ( "driver.compile",
      [
        Alcotest.test_case "work measured" `Quick test_work_measured;
        Alcotest.test_case "loc matches" `Quick test_loc_matches_gen;
        Alcotest.test_case "images runnable" `Quick test_compiled_images_runnable;
        Alcotest.test_case "parse errors" `Quick test_compile_error_reported;
        Alcotest.test_case "lexing errors name the file" `Quick test_lex_error_located;
        Alcotest.test_case "semantic errors" `Quick test_semantic_error_reported;
      ] );
    ( "driver.cost",
      [
        Alcotest.test_case "monotone in size" `Quick test_phase23_monotone_in_size;
        Alcotest.test_case "calibration anchors" `Quick test_calibration_anchors;
        Alcotest.test_case "parse under 5%" `Quick test_parse_under_five_percent;
        Alcotest.test_case "slowdown shape" `Quick test_slowdown_shape;
        Alcotest.test_case "sequential heap grows" `Quick test_sequential_mb_grows;
      ] );
  ]
