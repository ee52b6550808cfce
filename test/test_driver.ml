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

(* --- the function-master pool --- *)

(* A module of one ten-cell section holding [funcs]. *)
let module_of_funcs name funcs =
  let m = W2.Gen.module_of_function (List.hd funcs) in
  {
    m with
    W2.Ast.mname = name;
    sections =
      List.map
        (fun (sec : W2.Ast.section) -> { sec with W2.Ast.cells = 10; funcs })
        m.W2.Ast.sections;
  }

(* [compile_source] rebuilt one function at a time on this domain: the
   same phase-1 lints, static cost bounds and cache keys, then
   [compile_function] per function in source order and [Warp.Link.link]
   per section. *)
let one_at_a_time ~level ~file source =
  let m = W2.Parser.module_of_string ~file source in
  let analysis = Analysis.Depan.analyze m in
  List.map2
    (fun (si : Analysis.Depan.section_info) (sec : W2.Ast.section) ->
      let lints = ref [] in
      W2.Lint.lint_section (fun d -> lints := d :: !lints) sec;
      let lints = W2.Diag.sort (Analysis.Depan.lint_section si @ !lints) in
      let keys =
        Analysis.Depan.cache_keys
          ~salt:(Analysis.Depan.cache_salt ~opt_level:level ~verify_each:false)
          si
      in
      let func_rets = Driver.Compile.func_rets_of sec in
      let compiled =
        List.mapi
          (fun i (f : W2.Ast.func) ->
            let fi = si.Analysis.Depan.si_funcs.(i) in
            Driver.Compile.compile_function ~level
              ~diags:(W2.Diag.for_func f.W2.Ast.fname lints)
              ?static_units:
                (Option.map Analysis.Absint.cost_units fi.Analysis.Depan.fi_cost)
              ~key:keys.(i) ~globals:sec.W2.Ast.globals ~func_rets
              ~section:sec.W2.Ast.sname f)
          sec.W2.Ast.funcs
      in
      let image =
        Warp.Link.link ~section:sec.W2.Ast.sname ~cells:sec.W2.Ast.cells
          (List.map (fun (_, mfunc, _) -> mfunc) compiled)
      in
      (List.map (fun (fw, _, _) -> fw) compiled, image, lints))
    analysis.Analysis.Depan.dp_sections m.W2.Ast.sections

let work_to_string (fw : Driver.Compile.func_work) =
  let opt = function None -> "-" | Some s -> s in
  Printf.sprintf "%s/%s loc=%d tokens=%d nodes=%d ir=%d opt=%d sched=%d \
                  wides=%d pipelined=%d spilled=%d static=%s key=%s diags=[%s]"
    fw.fw_section fw.fw_name fw.fw_loc fw.fw_tokens fw.fw_ast_nodes
    fw.fw_ir_instrs fw.fw_opt_work fw.fw_sched_work fw.fw_wides
    fw.fw_pipelined fw.fw_spilled
    (opt (Option.map string_of_int fw.fw_static_units))
    (opt fw.fw_key)
    (String.concat "; " (List.map W2.Diag.to_string fw.fw_diags))

(* The pooled compile equals the one-function-at-a-time compile field
   for field and byte for byte, whichever master took which function:
   every shipped example, S_3 at every size and the section 4.3 and 5.1
   programs, at -O0 to -O3. *)
let test_pool_matches_one_at_a_time () =
  let generated =
    List.map
      (fun size ->
        ( "s3 " ^ W2.Gen.size_name size,
          W2.Pretty.module_to_string (W2.Gen.s_program ~size ~count:3 ()) ))
      W2.Gen.all_sizes
    @ [
        ("user", W2.Pretty.module_to_string (W2.Gen.user_program ()));
        ("helper", W2.Pretty.module_to_string (W2.Gen.helper_program ()));
      ]
  in
  let inputs = Lazy.force Tutil.examples @ generated in
  Alcotest.(check bool) "found example programs" true (List.length inputs >= 22);
  let strings = Alcotest.(list string) in
  List.iter
    (fun (name, source) ->
      List.iter
        (fun level ->
          let what fmt = Printf.sprintf ("%s -O%d: " ^^ fmt) name level in
          let mw = Driver.Compile.compile_source ~level ~file:name source in
          let reference = one_at_a_time ~level ~file:name source in
          Alcotest.(check int) (what "sections")
            (List.length reference) (List.length mw.Driver.Compile.mw_sections);
          List.iter2
            (fun (sw : Driver.Compile.section_work) (works, image, lints) ->
              Alcotest.check strings (what "work records")
                (List.map work_to_string works)
                (List.map work_to_string sw.sw_funcs);
              Alcotest.(check string) (what "image bytes")
                (Warp.Asm.encode image) (Warp.Asm.encode sw.sw_image);
              Alcotest.(check int) (what "encoded size")
                (Warp.Asm.encoded_size image) sw.sw_image_bytes;
              Alcotest.(check string) (what "I/O driver")
                (Warp.Iodriver.to_string (Warp.Iodriver.generate image))
                (Warp.Iodriver.to_string sw.sw_driver);
              Alcotest.check strings (what "diagnostics")
                (List.map W2.Diag.to_string lints)
                (List.map W2.Diag.to_string sw.sw_diags))
            mw.Driver.Compile.mw_sections reference)
        [ 0; 1; 2; 3 ])
    inputs

(* The pool keeps its results in task order, never runs more masters
   than the machine recommends, and re-raises the first failure in
   source order only after every task has run. *)
let test_pool_order_and_failure () =
  let seen = Array.make 16 (-1) in
  let task i () =
    seen.(i) <- (Domain.self () :> int);
    i * i
  in
  let groups = [ List.init 5 task; []; List.init 11 (fun i -> task (i + 5)) ] in
  let results = Driver.Compile.function_masters ~masters:64 groups in
  Alcotest.(check (list (list int))) "results in task order"
    [ List.init 5 (fun i -> i * i); []; List.init 11 (fun i -> (i + 5) * (i + 5)) ]
    results;
  let masters = List.sort_uniq compare (Array.to_list seen) in
  Alcotest.(check bool)
    (Printf.sprintf "%d masters, at most %d" (List.length masters)
       (Domain.recommended_domain_count ()))
    true
    (List.length masters <= Domain.recommended_domain_count ());
  let ran = Atomic.make 0 in
  let fail i () = Atomic.incr ran; failwith (string_of_int i) in
  let ok () = Atomic.incr ran in
  let raised =
    try
      ignore (Driver.Compile.function_masters [ [ ok; fail 1 ]; [ ok; fail 2; ok ] ]);
      None
    with Failure msg -> Some msg
  in
  Alcotest.(check (option string)) "first failure in source order" (Some "1") raised;
  Alcotest.(check int) "every task ran" 5 (Atomic.get ran)

(* [Array.make] of more than 256 words with a young fill value forces a
   minor collection (OCaml 5's [caml_make_vect]); with several function
   masters running that is a stop-the-world pause for all of them.
   [Array.map], [Array.init] and [Array.of_list] go through it too.  The
   runtime counts such collections as EV_C_FORCE_MINOR_MAKE_VECT. *)
let forced_minor_collections f =
  Runtime_events.start ();
  let cursor = Runtime_events.create_cursor None in
  let forced = ref 0 in
  let callbacks =
    Runtime_events.Callbacks.create
      ~runtime_counter:(fun _domain _ts counter value ->
        if counter = Runtime_events.EV_C_FORCE_MINOR_MAKE_VECT then
          forced := !forced + value)
      ~lost_events:(fun _domain n -> Alcotest.failf "%d runtime events lost" n)
      ()
  in
  ignore (Runtime_events.read_poll cursor callbacks None);
  forced := 0;
  Fun.protect
    ~finally:(fun () ->
      Runtime_events.free_cursor cursor;
      Runtime_events.pause ())
    (fun () ->
      f (fun () -> ignore (Runtime_events.read_poll cursor callbacks None));
      !forced)

(* The whole compile path forces no minor collection: the five paper
   sizes, and a module shaped like the coarse benchmark workload's (an
   f_medium, an f_large and two f_small loop nests). *)
let test_no_forced_minor_collections () =
  let sized =
    module_of_funcs "sizes"
      (List.map
         (fun size -> W2.Gen.sized_function ~name:(W2.Gen.size_name size) size)
         W2.Gen.all_sizes)
  in
  let coarse =
    module_of_funcs "coarse"
      (List.mapi
         (fun j size ->
           W2.Gen.function_of_lines ~name:(Printf.sprintf "f%d" j)
             (W2.Gen.size_lines size))
         W2.Gen.[ Medium; Large; Small; Small ])
  in
  let forced =
    forced_minor_collections (fun poll ->
        List.iter
          (fun m ->
            ignore (Driver.Compile.compile_module m);
            poll ())
          [ sized; coarse ])
  in
  Alcotest.(check int) "forced minor collections" 0 forced

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
    ( "driver.pool",
      [
        Alcotest.test_case "pooled = one function at a time" `Slow
          test_pool_matches_one_at_a_time;
        Alcotest.test_case "order, masters and failure" `Quick
          test_pool_order_and_failure;
        Alcotest.test_case "no forced minor collections" `Quick
          test_no_forced_minor_collections;
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
