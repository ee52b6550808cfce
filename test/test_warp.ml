(* Back-end tests: register allocation, list scheduling, modulo
   scheduling (software pipelining), assembly round trips, the cell and
   array simulators — and end-to-end differential testing: compiled
   code executed on the cycle simulator must agree with the source
   interpreter at every optimization level. *)

open Midend

let parse_module src =
  let m = W2.Parser.module_of_string src in
  W2.Semcheck.check_module_exn m;
  m

(* Full compilation pipeline for the first section of a module. *)
let compile ?(level = 2) ?reg_limit ?pipeline (m : W2.Ast.modul) : Warp.Mcode.image =
  let sec = List.hd (Lower.lower_module m) in
  List.iter (fun f -> ignore (Opt.optimize ~level f)) sec.Ir.funcs;
  let compiled =
    List.map (fun f -> (Warp.Codegen.compile_function ?reg_limit ?pipeline f).Warp.Codegen.mfunc) sec.Ir.funcs
  in
  Warp.Link.link ~section:sec.Ir.sec_name ~cells:sec.Ir.cells compiled

(* A graph's edges as sorted (dist, src, dst, delay) lists, read once
   from [succs] and once from [preds]: [Warp.Ddg] promises no order
   within either list. *)
let edge_sets (g : Warp.Ddg.t) =
  let collect lists edge =
    Array.to_list (Array.mapi (fun i l -> List.map (edge i) l) lists)
    |> List.concat |> List.sort compare
  in
  ( collect g.Warp.Ddg.succs (fun src (dst, delay, dist) -> (dist, src, dst, delay)),
    collect g.Warp.Ddg.preds (fun dst (src, delay, dist) -> (dist, src, dst, delay)) )

let vi n = Ir_interp.Vi n
let vf f = Ir_interp.Vf f

let values_close a b =
  match (a, b) with
  | Ir_interp.Vi x, Ir_interp.Vi y -> x = y
  | Ir_interp.Vf x, Ir_interp.Vf y ->
    (Float.is_nan x && Float.is_nan y)
    || abs_float (x -. y) <= 1e-9 *. (1.0 +. abs_float x +. abs_float y)
  | _ -> false

let sample =
  {|
module m
  section s cells 2
  function helper(x: float) : float
  begin
    return x * 2.0 + 1.0;
  end
  function main(n: int) : float
    var i : int;
    var acc : float;
  begin
    acc := 0.0;
    for i := 1 to n do
      acc := acc + helper(float(i));
    end;
    return acc;
  end
  end
end
|}

(* --- regalloc --- *)

let first_func src = List.hd (List.hd (Lower.lower_module (parse_module src)) : Ir.section).Ir.funcs

let test_regalloc_bounds () =
  let f = first_func sample in
  let alloc = Warp.Regalloc.run f in
  Array.iter
    (fun (b : Ir.block) ->
      List.iter
        (fun instr ->
          List.iter
            (fun r ->
              Alcotest.(check bool) "phys reg" true (r >= 0 && r < Warp.Machine.num_regs))
            ((match Ir.def_of instr with Some d -> [ d ] | None -> []) @ Ir.uses_of instr))
        b.Ir.instrs)
    alloc.Warp.Regalloc.func.Ir.blocks

let test_regalloc_spills_under_pressure () =
  (* Allocate the medium benchmark with very few registers: spills must
     occur and the allocation must still succeed. *)
  let m = W2.Gen.module_of_function (W2.Gen.sized_function ~name:"big" W2.Gen.Medium) in
  let f = List.hd (List.hd (Lower.lower_module m)).Ir.funcs in
  let alloc = Warp.Regalloc.run ~reg_limit:6 f in
  Alcotest.(check bool) "spilled" true (alloc.Warp.Regalloc.spilled > 0)

(* The allocator's active set: inserting an interval into a list sorted
   by [hi] gives the order a stable sort of the extended list gives.
   Few distinct ends, so ties are common. *)
let prop_insert_by_hi_is_stable_sort =
  let arb =
    QCheck.make
      ~print:(fun (his, hi) ->
        Printf.sprintf "active his [%s], new hi %d"
          (String.concat "; " (List.map string_of_int his)) hi)
      QCheck.Gen.(pair (list_size (int_range 0 30) (int_range 0 8)) (int_range 0 8))
  in
  QCheck.Test.make ~name:"regalloc: insertion by hi = stable sort by hi" ~count:500 arb
    (fun (his, hi) ->
      let itv vreg hi = { Warp.Regalloc.vreg; lo = 0; hi; is_param = false } in
      let by_hi a b = Int.compare a.Warp.Regalloc.hi b.Warp.Regalloc.hi in
      let active = List.stable_sort by_hi (List.mapi itv his) in
      let fresh = itv (List.length his) hi in
      let vregs = List.map (fun a -> a.Warp.Regalloc.vreg) in
      vregs (Warp.Regalloc.insert_by_hi fresh active)
      = vregs (List.stable_sort by_hi (fresh :: active)))

(* --- list scheduler --- *)

let test_listsched_dependences () =
  (* r2 := r0 * r1 (fmul, lat 5); r3 := r2 + r0 (fadd): the consumer
     must issue at least 5 cycles later. *)
  let ops =
    [|
      Ir.Bin (Ir.Fmul, 2, Ir.Reg 0, Ir.Reg 1);
      Ir.Bin (Ir.Fadd, 3, Ir.Reg 2, Ir.Reg 0);
    |]
  in
  let s = Warp.Listsched.run ops in
  Alcotest.(check bool) "latency respected" true
    (s.Warp.Listsched.issue.(1) >= s.Warp.Listsched.issue.(0) + 5)

let test_listsched_parallel_issue () =
  (* Independent int and float ops can share a cycle. *)
  let ops =
    [|
      Ir.Bin (Ir.Iadd, 2, Ir.Reg 0, Ir.Imm_int 1);
      Ir.Bin (Ir.Fadd, 3, Ir.Reg 4, Ir.Reg 5);
    |]
  in
  let s = Warp.Listsched.run ops in
  Alcotest.(check int) "same cycle" s.Warp.Listsched.issue.(0) s.Warp.Listsched.issue.(1)

let test_listsched_fu_conflict () =
  (* Two independent ALU adds cannot share a cycle. *)
  let ops =
    [|
      Ir.Bin (Ir.Iadd, 2, Ir.Reg 0, Ir.Imm_int 1);
      Ir.Bin (Ir.Iadd, 3, Ir.Reg 1, Ir.Imm_int 1);
    |]
  in
  let s = Warp.Listsched.run ops in
  Alcotest.(check bool) "different cycles" true
    (s.Warp.Listsched.issue.(0) <> s.Warp.Listsched.issue.(1))

let test_listsched_pads_latency () =
  let ops = [| Ir.Bin (Ir.Fmul, 2, Ir.Reg 0, Ir.Reg 1) |] in
  let s = Warp.Listsched.run ops in
  Alcotest.(check int) "padded to write-back" 5 (Array.length s.Warp.Listsched.code)

(* --- modulo scheduler --- *)

let test_modsched_res_mii () =
  (* Memory-bound dot-product step: two loads share the MEM unit, so
     ResMII = 2, but the accumulation recurrence (fadd, latency 5)
     dominates: II = 5, well below the 13-cycle critical path. *)
  let ops =
    [|
      Ir.Load (1, "a", Ir.Reg 0);
      Ir.Load (2, "b", Ir.Reg 0);
      Ir.Bin (Ir.Fmul, 3, Ir.Reg 1, Ir.Reg 2);
      Ir.Bin (Ir.Fadd, 4, Ir.Reg 4, Ir.Reg 3);
      Ir.Bin (Ir.Iadd, 0, Ir.Reg 0, Ir.Imm_int 1);
    |]
  in
  let r = Warp.Modsched.run ops in
  Alcotest.(check int) "II = RecMII" 5 r.Warp.Modsched.ii

let test_modsched_recurrence () =
  (* acc := acc + x*y: the accumulator recurrence forces II >= 5 even
     though each functional unit is used once. *)
  let ops =
    [|
      Ir.Bin (Ir.Fmul, 2, Ir.Reg 0, Ir.Reg 1);
      Ir.Bin (Ir.Fadd, 3, Ir.Reg 3, Ir.Reg 2);
    |]
  in
  let r = Warp.Modsched.run ops in
  Alcotest.(check bool) "II >= latency" true (r.Warp.Modsched.ii >= 5)

let test_modsched_unprofitable_rejected () =
  (* Three independent single-cycle ALU ops: overlap cannot recover
     enough of the 1-cycle critical path, so the scheduler declines
     (list scheduling is already optimal there). *)
  let ops =
    [|
      Ir.Bin (Ir.Iadd, 1, Ir.Reg 0, Ir.Imm_int 1);
      Ir.Bin (Ir.Iadd, 2, Ir.Reg 0, Ir.Imm_int 2);
      Ir.Bin (Ir.Iadd, 3, Ir.Reg 0, Ir.Imm_int 3);
    |]
  in
  match Warp.Modsched.run ops with
  | exception Warp.Modsched.No_schedule _ -> ()
  | _ -> Alcotest.fail "expected the profitability cut-off to fire"

(* A classic pipelinable kernel: load, multiply, accumulate. *)
let dot_src =
  {|
module m
  section s cells 1
  function dot(n: int) : float
    var i : int;
    var acc : float;
    var a : array[16] of float;
  begin
    for i := 0 to 15 do
      a[i] := float(i) * 0.5;
    end;
    acc := 0.0;
    for i := 0 to 15 do
      acc := acc + a[i] * 0.25;
    end;
    return acc;
  end
  end
end
|}

let test_modsched_overlaps_kernel () =
  (* The accumulation kernel must pipeline with II well below the
     single-iteration critical path (load 3 + fmul 5 + fadd 5). *)
  let sec = List.hd (Lower.lower_module (parse_module dot_src)) in
  List.iter (fun f -> ignore (Opt.optimize ~level:2 f)) sec.Ir.funcs;
  let f = List.hd sec.Ir.funcs in
  let loops = Loops.innermost (Loops.find f) in
  let counted = List.filter_map (Counted.recognize f) loops in
  let alloc = Warp.Regalloc.run f in
  let fp = alloc.Warp.Regalloc.func in
  let best_ii =
    List.fold_left
      (fun acc (c : Counted.t) ->
        let ops = Array.of_list fp.Ir.blocks.(c.Counted.body_block).Ir.instrs in
        match Warp.Modsched.run ops with
        | r -> min acc r.Warp.Modsched.ii
        | exception Warp.Modsched.No_schedule _ -> acc)
      max_int counted
  in
  Alcotest.(check bool) "found a kernel" true (best_ii < max_int);
  Alcotest.(check bool)
    (Printf.sprintf "II (%d) < critical path (13)" best_ii)
    true (best_ii < 13)

let test_modsched_edges_hold () =
  (* Every dependence edge must hold in the computed schedule. *)
  let m = parse_module dot_src in
  let sec = List.hd (Lower.lower_module m) in
  List.iter (fun f -> ignore (Opt.optimize ~level:2 f)) sec.Ir.funcs;
  let f = List.hd sec.Ir.funcs in
  (* Loops are recognized on virtual registers; scheduling operates on
     the register-allocated body (block ids survive allocation). *)
  let alloc = Warp.Regalloc.run f in
  let fp = alloc.Warp.Regalloc.func in
  let checked = ref 0 in
  List.iter
    (fun l ->
      match Counted.recognize f l with
      | Some c ->
        Warp.Rename_locals.run fp c.Counted.body_block;
        let ops = Array.of_list fp.Ir.blocks.(c.Counted.body_block).Ir.instrs in
        if Array.length ops > 0 && not (Array.exists (function Ir.Call _ -> true | _ -> false) ops)
        then begin
          match Warp.Modsched.run ops with
          | r ->
            let g = Warp.Ddg.build ops in
            List.iter
              (fun (dist, src, dst, delay) ->
                incr checked;
                Alcotest.(check bool)
                  (Printf.sprintf "edge %d->%d delay %d dist %d" src dst delay dist)
                  true
                  (r.Warp.Modsched.sigma.(dst)
                   >= r.Warp.Modsched.sigma.(src) + delay - (r.Warp.Modsched.ii * dist)))
              (fst (edge_sets g))
          | exception Warp.Modsched.No_schedule _ -> ()
        end
      | None -> ())
    (Loops.innermost (Loops.find f));
  Alcotest.(check bool) "checked some edges" true (!checked > 0)

(* --- end-to-end --- *)

let test_e2e_sample () =
  let m = parse_module sample in
  let image = compile m in
  let result, cycles = Warp.Cellsim.run image ~name:"main" ~args:[ vi 4 ] in
  (* sum_{i=1..4} (2i + 1) = 2*10 + 4 = 24 *)
  Alcotest.(check bool) "value" true (values_close (Option.get result) (vf 24.0));
  Alcotest.(check bool) "took cycles" true (cycles > 0)

let test_e2e_pipelining_fires () =
  let m = parse_module dot_src in
  let sec = List.hd (Lower.lower_module m) in
  List.iter (fun f -> ignore (Opt.optimize ~level:2 f)) sec.Ir.funcs;
  let compiled = List.map (fun f -> Warp.Codegen.compile_function f) sec.Ir.funcs in
  let pipelined = List.fold_left (fun acc c -> acc + c.Warp.Codegen.pipelined) 0 compiled in
  Alcotest.(check bool) "software pipelining fired" true (pipelined > 0);
  (* And the pipelined code computes the right dot product:
     sum_{i=0..15} (0.5 i * 0.25) = 0.125 * 120 = 15.0 *)
  let image = compile m in
  let result, _ = Warp.Cellsim.run image ~name:"dot" ~args:[ vi 0 ] in
  Alcotest.(check bool) "value" true (values_close (Option.get result) (vf 15.0))

let test_e2e_pipelined_beats_unpipelined_cycles () =
  (* Software pipelining must reduce the cycle count of the kernel. *)
  let cycles pipeline =
    let m = parse_module dot_src in
    let sec = List.hd (Lower.lower_module m) in
    List.iter (fun f -> ignore (Opt.optimize ~level:2 f)) sec.Ir.funcs;
    let compiled =
      List.map
        (fun f -> (Warp.Codegen.compile_function ~pipeline f).Warp.Codegen.mfunc)
        sec.Ir.funcs
    in
    let image = Warp.Link.link ~section:"s" ~cells:1 compiled in
    let _, cycles = Warp.Cellsim.run image ~name:"dot" ~args:[ vi 0 ] in
    cycles
  in
  let with_sp = cycles true and without_sp = cycles false in
  Alcotest.(check bool)
    (Printf.sprintf "pipelined %d < unpipelined %d cycles" with_sp without_sp)
    true (with_sp < without_sp)

let test_e2e_channels () =
  let src =
    {|
module m
  section s cells 1
  function relay(n: int) : int
    var i : int;
    var x : float;
  begin
    for i := 1 to n do
      receive(X, x);
      send(X, x * 0.5 + 1.0);
    end;
    return n;
  end
  end
end
|}
  in
  let image = compile (parse_module src) in
  let ports, outputs = Warp.Cellsim.script_ports ~input_x:[ vf 2.0; vf 6.0 ] ~input_y:[] in
  let result, _ = Warp.Cellsim.run ~ports image ~name:"relay" ~args:[ vi 2 ] in
  Alcotest.(check bool) "result" true (values_close (Option.get result) (vi 2));
  let out_x, _ = outputs () in
  (match out_x with
  | [ a; b ] ->
    Alcotest.(check bool) "first" true (values_close a (vf 2.0));
    Alcotest.(check bool) "second" true (values_close b (vf 4.0))
  | _ -> Alcotest.fail "expected two outputs")

let paper_levels = [ 0; 1; 2; 3 ]

let test_e2e_paper_benchmarks () =
  List.iter
    (fun size ->
      let f = W2.Gen.sized_function ~name:"bench" size in
      let m = W2.Gen.module_of_function f in
      let expected =
        match
          W2.Interp.run_function ~fuel:5_000_000 (List.hd m.W2.Ast.sections)
            ~name:"bench"
            ~args:[ W2.Interp.Vint 9; W2.Interp.Vint 2 ]
        with
        | Some (W2.Interp.Vfloat v) -> vf v
        | _ -> Alcotest.fail "reference failed"
      in
      List.iter
        (fun level ->
          let image = compile ~level m in
          let result, _ =
            Warp.Cellsim.run ~fuel:50_000_000 image ~name:"bench" ~args:[ vi 9; vi 2 ]
          in
          match result with
          | Some v when values_close v expected -> ()
          | Some v ->
            Alcotest.failf "%s level %d: %s <> %s" (W2.Gen.size_name size) level
              (Ir_interp.value_to_string v)
              (Ir_interp.value_to_string expected)
          | None -> Alcotest.failf "%s level %d: no result" (W2.Gen.size_name size) level)
        paper_levels)
    [ W2.Gen.Tiny; W2.Gen.Small; W2.Gen.Medium ]

let test_e2e_spilled_code_still_correct () =
  let m = W2.Gen.module_of_function (W2.Gen.sized_function ~name:"bench" W2.Gen.Small) in
  let expected =
    match
      W2.Interp.run_function ~fuel:5_000_000 (List.hd m.W2.Ast.sections) ~name:"bench"
        ~args:[ W2.Interp.Vint 5; W2.Interp.Vint 1 ]
    with
    | Some (W2.Interp.Vfloat v) -> vf v
    | _ -> Alcotest.fail "reference failed"
  in
  let image = compile ~reg_limit:8 m in
  let result, _ = Warp.Cellsim.run ~fuel:50_000_000 image ~name:"bench" ~args:[ vi 5; vi 1 ] in
  Alcotest.(check bool) "spilled run matches" true
    (values_close (Option.get result) expected)

let prop_e2e_random =
  QCheck.Test.make ~name:"compiled code matches interpreter (random programs)"
    ~count:60
    QCheck.(triple small_nat small_nat (int_range 0 60))
    (fun (seed, size, input) ->
      let f = W2.Gen.random_function ~allow_channels:true ~seed ~size () in
      let m = W2.Gen.module_of_function f in
      let args_int = input mod 17 in
      let args_float = 0.25 +. (0.5 *. float_of_int (input mod 5)) in
      let inputs = List.init 64 (fun i -> 0.25 *. float_of_int i) in
      (* Reference run. *)
      let reference =
        let channels, outputs =
          W2.Interp.queue_channels
            ~input_x:(List.map (fun v -> W2.Interp.Vfloat v) inputs)
            ~input_y:[]
        in
        match
          W2.Interp.run_function ~fuel:400_000 ~channels (List.hd m.W2.Ast.sections)
            ~name:"prop_f"
            ~args:[ W2.Interp.Vint args_int; W2.Interp.Vfloat args_float ]
        with
        | exception W2.Interp.Out_of_fuel -> `Fuel
        | exception W2.Interp.Runtime_error _ -> `Failed
        | r ->
          let out_x, out_y = outputs () in
          let conv = function
            | W2.Interp.Vint n -> vi n
            | W2.Interp.Vfloat v -> vf v
            | W2.Interp.Vbool b -> vi (if b then 1 else 0)
            | W2.Interp.Varray _ -> vi 0
          in
          `Value (Option.map conv r, List.map conv (out_x @ out_y))
      in
      match reference with
      | `Fuel -> true (* too long to compare meaningfully *)
      | `Failed -> true (* runtime errors covered by midend differential *)
      | `Value (expected, expected_out) -> (
        let image = compile ~level:2 m in
        let ports, outputs =
          Warp.Cellsim.script_ports ~input_x:(List.map (fun v -> vf v) inputs) ~input_y:[]
        in
        match Warp.Cellsim.run ~fuel:20_000_000 ~ports image ~name:"prop_f"
                ~args:[ vi args_int; vf args_float ]
        with
        | exception Warp.Cellsim.Fault reason ->
          QCheck.Test.fail_reportf "cell faulted (%s) on seed=%d size=%d" reason seed size
        | result, _ ->
          let out_x, out_y = outputs () in
          let got_out = out_x @ out_y in
          let ok_result =
            match (expected, result) with
            | None, None -> true
            | Some a, Some b -> values_close a b
            | _ -> false
          in
          if
            ok_result
            && List.length expected_out = List.length got_out
            && List.for_all2 values_close expected_out got_out
          then true
          else
            QCheck.Test.fail_reportf "mismatch on seed=%d size=%d input=%d" seed size input))

(* --- assembler --- *)

let test_asm_roundtrip () =
  let image = compile (parse_module sample) in
  let encoded = Warp.Asm.encode image in
  let decoded = Warp.Asm.decode encoded in
  Alcotest.(check bool) "round trip" true (decoded = image)

let test_asm_rejects_garbage () =
  (match Warp.Asm.decode "not an object" with
  | exception Warp.Asm.Bad_object _ -> ()
  | _ -> Alcotest.fail "accepted garbage");
  let image = compile (parse_module sample) in
  let encoded = Warp.Asm.encode image in
  let truncated = String.sub encoded 0 (String.length encoded / 2) in
  match Warp.Asm.decode truncated with
  | exception Warp.Asm.Bad_object _ -> ()
  | _ -> Alcotest.fail "accepted truncated module"

let test_decoded_image_runs () =
  let image = compile (parse_module sample) in
  let decoded = Warp.Asm.decode (Warp.Asm.encode image) in
  let a, _ = Warp.Cellsim.run image ~name:"main" ~args:[ vi 3 ] in
  let b, _ = Warp.Cellsim.run decoded ~name:"main" ~args:[ vi 3 ] in
  Alcotest.(check bool) "same result" true
    (values_close (Option.get a) (Option.get b))

(* --- linker --- *)

let test_link_undefined () =
  let src =
    {|
module m
  section s cells 1
  function f() : int
  begin
    return g();
  end
  function g() : int
  begin
    return 1;
  end
  end
end
|}
  in
  let sec = List.hd (Lower.lower_module (parse_module src)) in
  let compiled =
    List.map (fun f -> (Warp.Codegen.compile_function f).Warp.Codegen.mfunc) sec.Ir.funcs
  in
  (* Drop g: linking must fail. *)
  let broken = List.filter (fun (f : Warp.Mcode.mfunc) -> f.Warp.Mcode.mf_name <> "g") compiled in
  match Warp.Link.link ~section:"s" ~cells:1 broken with
  | exception Warp.Link.Undefined_symbol ("f", "g") -> ()
  | _ -> Alcotest.fail "expected undefined symbol"

(* --- io driver --- *)

let test_iodriver () =
  let image = compile (parse_module sample) in
  let driver = Warp.Iodriver.generate image in
  Alcotest.(check int) "cells" 2 driver.Warp.Iodriver.drv_cells;
  Alcotest.(check int) "entries" 2 (List.length driver.Warp.Iodriver.entries);
  Alcotest.(check bool) "bytes positive" true (driver.Warp.Iodriver.download_bytes > 0);
  let text = Warp.Iodriver.to_string driver in
  Alcotest.(check bool) "mentions wiring" true (Tutil.contains text "cell0.X -> cell1.X")

(* --- array simulator --- *)

let test_arraysim_pipeline () =
  (* Each cell adds 1.0 to everything flowing through on X; with 3
     cells the host sees +3.0. *)
  let src =
    {|
module m
  section pipe cells 3
  function stage(n: int) : int
    var i : int;
    var x : float;
  begin
    for i := 1 to n do
      receive(X, x);
      send(X, x + 1.0);
    end;
    return n;
  end
  end
end
|}
  in
  let image = compile (parse_module src) in
  let result =
    Warp.Arraysim.run image ~name:"stage"
      ~args:(fun _ -> [ vi 3 ])
      ~input_x:[ vf 0.0; vf 10.0; vf 20.0 ]
      ()
  in
  Alcotest.(check int) "three outputs" 3 (List.length result.Warp.Arraysim.host_x);
  List.iter2
    (fun got want ->
      Alcotest.(check bool) "value" true (values_close got (vf want)))
    result.Warp.Arraysim.host_x [ 3.0; 13.0; 23.0 ];
  Array.iter
    (fun r -> Alcotest.(check bool) "cell returned" true (values_close (Option.get r) (vi 3)))
    result.Warp.Arraysim.returns

let test_arraysim_reverse_channel () =
  (* Y flows right to left. *)
  let src =
    {|
module m
  section pipe cells 2
  function stage(n: int) : int
    var x : float;
  begin
    receive(Y, x);
    send(Y, x * 2.0);
    return n;
  end
  end
end
|}
  in
  let image = compile (parse_module src) in
  let result =
    Warp.Arraysim.run image ~name:"stage" ~args:(fun _ -> [ vi 1 ]) ~input_y:[ vf 3.0 ] ()
  in
  match result.Warp.Arraysim.host_y with
  | [ v ] -> Alcotest.(check bool) "doubled twice" true (values_close v (vf 12.0))
  | _ -> Alcotest.fail "expected one host Y output"

let test_arraysim_deadlock_detected () =
  let src =
    {|
module m
  section pipe cells 2
  function stage(n: int) : int
    var x : float;
  begin
    receive(X, x);
    return n;
  end
  end
end
|}
  in
  let image = compile (parse_module src) in
  (* No host input: cell 0 blocks forever. *)
  match Warp.Arraysim.run image ~name:"stage" ~args:(fun _ -> [ vi 1 ]) () with
  | exception Warp.Arraysim.Deadlock _ -> ()
  | _ -> Alcotest.fail "expected deadlock"

let suites =
  [
    ( "warp.regalloc",
      [
        Alcotest.test_case "physical bounds" `Quick test_regalloc_bounds;
        Alcotest.test_case "spills under pressure" `Quick test_regalloc_spills_under_pressure;
        QCheck_alcotest.to_alcotest prop_insert_by_hi_is_stable_sort;
      ] );
    ( "warp.listsched",
      [
        Alcotest.test_case "latency" `Quick test_listsched_dependences;
        Alcotest.test_case "parallel issue" `Quick test_listsched_parallel_issue;
        Alcotest.test_case "fu conflict" `Quick test_listsched_fu_conflict;
        Alcotest.test_case "write-back padding" `Quick test_listsched_pads_latency;
      ] );
    ( "warp.modsched",
      [
        Alcotest.test_case "res mii" `Quick test_modsched_res_mii;
        Alcotest.test_case "kernel overlap" `Quick test_modsched_overlaps_kernel;
        Alcotest.test_case "recurrence bound" `Quick test_modsched_recurrence;
        Alcotest.test_case "unprofitable rejected" `Quick test_modsched_unprofitable_rejected;
        Alcotest.test_case "edges hold" `Quick test_modsched_edges_hold;
      ] );
    ( "warp.e2e",
      [
        Alcotest.test_case "sample with calls" `Quick test_e2e_sample;
        Alcotest.test_case "pipelining fires" `Quick test_e2e_pipelining_fires;
        Alcotest.test_case "pipelining saves cycles" `Quick test_e2e_pipelined_beats_unpipelined_cycles;
        Alcotest.test_case "channels" `Quick test_e2e_channels;
        Alcotest.test_case "paper benchmarks all levels" `Slow test_e2e_paper_benchmarks;
        Alcotest.test_case "spilled code correct" `Quick test_e2e_spilled_code_still_correct;
        QCheck_alcotest.to_alcotest prop_e2e_random;
      ] );
    ( "warp.asm",
      [
        Alcotest.test_case "round trip" `Quick test_asm_roundtrip;
        Alcotest.test_case "rejects garbage" `Quick test_asm_rejects_garbage;
        Alcotest.test_case "decoded image runs" `Quick test_decoded_image_runs;
      ] );
    ("warp.link", [ Alcotest.test_case "undefined symbol" `Quick test_link_undefined ]);
    ("warp.iodriver", [ Alcotest.test_case "driver" `Quick test_iodriver ]);
    ( "warp.arraysim",
      [
        Alcotest.test_case "pipeline" `Quick test_arraysim_pipeline;
        Alcotest.test_case "reverse channel" `Quick test_arraysim_reverse_channel;
        Alcotest.test_case "deadlock detection" `Quick test_arraysim_deadlock_detected;
      ] );
  ]

(* --- static verifier --- *)

let test_verify_accepts_compiled_code () =
  List.iter
    (fun size ->
      List.iter
        (fun level ->
          let m = W2.Gen.module_of_function (W2.Gen.sized_function ~name:"b" size) in
          let image = compile ~level m in
          match Warp.Verify.image image with
          | [] -> ()
          | v :: _ ->
            Alcotest.failf "%s level %d: %s" (W2.Gen.size_name size) level
              (Warp.Verify.violation_to_string v))
        [ 0; 2; 3 ])
    W2.Gen.all_sizes

let test_verify_accepts_spilled_and_called_code () =
  let image = compile ~reg_limit:8 (parse_module sample) in
  Alcotest.(check int) "no violations" 0 (List.length (Warp.Verify.image image))

let corrupt_first_op (image : Warp.Mcode.image) ~f =
  (* Rewrite the first occupied slot of the first non-empty block. *)
  let copied =
    {
      image with
      Warp.Mcode.funcs =
        Array.map
          (fun (mf : Warp.Mcode.mfunc) ->
            { mf with Warp.Mcode.mblocks = Array.map (fun b -> b) mf.Warp.Mcode.mblocks })
          image.Warp.Mcode.funcs;
    }
  in
  (try
     Array.iter
       (fun (mf : Warp.Mcode.mfunc) ->
         Array.iteri
           (fun bi (b : Warp.Mcode.mblock) ->
             Array.iteri
               (fun wi wide ->
                 match Warp.Mcode.ops_of wide with
                 | op :: _ ->
                   let fu = Warp.Machine.fu_of op in
                   let wide' = Warp.Mcode.with_slot wide fu (f op) in
                   let code = Array.copy b.Warp.Mcode.code in
                   code.(wi) <- wide';
                   mf.Warp.Mcode.mblocks.(bi) <- { b with Warp.Mcode.code = code };
                   raise Exit
                 | [] -> ())
               b.Warp.Mcode.code)
           mf.Warp.Mcode.mblocks)
       copied.Warp.Mcode.funcs
   with Exit -> ());
  copied

let test_verify_rejects_bad_register () =
  let image = compile (parse_module dot_src) in
  let broken =
    corrupt_first_op image ~f:(fun op ->
        match op with
        | Ir.Bin (o, _, x, y) -> Ir.Bin (o, 999, x, y)
        | Ir.Un (o, _, x) -> Ir.Un (o, 999, x)
        | Ir.Mov (_, x) -> Ir.Mov (999, x)
        | Ir.Load (_, a, i) -> Ir.Load (999, a, i)
        | other -> other)
  in
  Alcotest.(check bool) "violation reported" true (Warp.Verify.image broken <> [])

let test_verify_rejects_undeclared_array () =
  let image = compile (parse_module dot_src) in
  let broken =
    corrupt_first_op image ~f:(fun op ->
        match op with
        | Ir.Load (d, _, i) -> Ir.Load (d, "phantom", i)
        | Ir.Store (_, i, v) -> Ir.Store ("phantom", i, v)
        | other -> (
          (* ensure at least one memory op gets corrupted somewhere:
             fall back to turning this op into a load of a phantom *)
          match Ir.def_of other with
          | Some d -> Ir.Load (d, "phantom", Ir.Imm_int 0)
          | None -> other))
  in
  Alcotest.(check bool) "violation reported" true
    (List.exists
       (fun v -> Tutil.contains (Warp.Verify.violation_to_string v) "phantom")
       (Warp.Verify.image broken))

let verify_suites =
  [
    ( "warp.verify",
      [
        Alcotest.test_case "accepts all compiled code" `Slow test_verify_accepts_compiled_code;
        Alcotest.test_case "accepts spilled code" `Quick test_verify_accepts_spilled_and_called_code;
        Alcotest.test_case "rejects bad register" `Quick test_verify_rejects_bad_register;
        Alcotest.test_case "rejects undeclared array" `Quick test_verify_rejects_undeclared_array;
      ] );
  ]

let suites = suites @ verify_suites

(* --- machine semantics details --- *)

let test_register_windows_preserve_caller () =
  (* A callee that computes a lot must not disturb the caller's live
     registers: windows isolate activations. *)
  let src =
    {|
module m
  section s cells 1
  function noisy(x: int) : int
    var i : int;
    var s : int;
  begin
    s := 0;
    for i := 0 to 9 do
      s := s + i * x;
    end;
    return s;
  end
  function main(n: int) : int
    var a : int;
    var b : int;
    var c : int;
  begin
    a := n * 3;
    b := n + 17;
    c := noisy(n);
    return a + b + c;
  end
  end
end
|}
  in
  let image = compile (parse_module src) in
  match Warp.Cellsim.run image ~name:"main" ~args:[ vi 4 ] with
  | Some (Ir_interp.Vi got), _ ->
    (* a=12 b=21 c=45*4=180 -> 213 *)
    Alcotest.(check int) "windows preserved" 213 got
  | _ -> Alcotest.fail "run failed"

let test_arraysim_backpressure () =
  (* A producer that sends far more than the queue capacity while the
     consumer drains slowly: flow control must stall, not lose data. *)
  let src =
    {|
module m
  section pipe cells 2
  function stage(id: int) : int
    var i : int;
    var x : float;
    var acc : float;
  begin
    if id = 0 then
      for i := 1 to 100 do
        send(X, float(i));
      end;
    else
      acc := 0.0;
      for i := 1 to 100 do
        receive(X, x);
        acc := acc + x;
      end;
      send(X, acc);
    end;
    return id;
  end
  end
end
|}
  in
  let image = compile (parse_module src) in
  let result =
    Warp.Arraysim.run ~fuel:1_000_000 image ~name:"stage" ~args:(fun i -> [ vi i ]) ()
  in
  match result.Warp.Arraysim.host_x with
  | [ Ir_interp.Vf total ] ->
    Alcotest.(check (float 1e-9)) "all 100 values arrive" 5050.0 total
  | _ -> Alcotest.fail "expected exactly one aggregated output"

let machine_suites =
  [
    ( "warp.machine-semantics",
      [
        Alcotest.test_case "register windows" `Quick test_register_windows_preserve_caller;
        Alcotest.test_case "queue backpressure" `Quick test_arraysim_backpressure;
      ] );
  ]

let suites = suites @ machine_suites

(* --- the indexed DDG, the incremental list scheduler and the bisected
   MII search, against test-only copies of the code they replaced --- *)

(* Oracle: the list-based hazard test of the all-pairs builder. *)
let oracle_hazard_delay a b : int option =
  let lat = Warp.Machine.latency in
  let delays = ref [] in
  let add d = delays := d :: !delays in
  let regs_def i = match Ir.def_of i with Some d -> [ d ] | None -> [] in
  let touched_array = function
    | Ir.Load (_, a, _) -> Some (a, `Load)
    | Ir.Store (a, _, _) -> Some (a, `Store)
    | _ -> None
  in
  let is_qio = function Ir.Send _ | Ir.Recv _ -> true | _ -> false in
  let da = regs_def a and ua = Ir.uses_of a in
  let db = regs_def b and ub = Ir.uses_of b in
  List.iter (fun r -> if List.mem r ub then add (lat a)) da;
  List.iter (fun r -> if List.mem r db then add (1 - lat b)) ua;
  List.iter (fun r -> if List.mem r db then add (lat a - lat b + 1)) da;
  (match (touched_array a, touched_array b) with
  | Some (arr_a, ka), Some (arr_b, kb) when arr_a = arr_b -> (
    match (ka, kb) with
    | `Store, `Load -> add 1
    | `Load, `Store -> add 0
    | `Store, `Store -> add 1
    | `Load, `Load -> ())
  | _ -> ());
  if is_qio a && is_qio b then add 1;
  match !delays with [] -> None | ds -> Some (List.fold_left max min_int ds)

(* Oracle: the all-pairs DDG builder. *)
let oracle_ddg ?(loop = false) (ops : Ir.instr array) : Warp.Ddg.t =
  let n = Array.length ops in
  let succs = Array.make n [] and preds = Array.make n [] in
  let add ~dist i j =
    match oracle_hazard_delay ops.(i) ops.(j) with
    | Some delay ->
      succs.(i) <- (j, delay, dist) :: succs.(i);
      preds.(j) <- (i, delay, dist) :: preds.(j)
    | None -> ()
  in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      add ~dist:0 i j
    done
  done;
  if loop then
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        add ~dist:1 i j
      done
    done;
  { Warp.Ddg.ops; succs; preds }

(* Oracle: the list scheduler that rescans every op on every cycle. *)
let oracle_listsched (ops : Ir.instr array) : Warp.Listsched.schedule =
  let n = Array.length ops in
  if n = 0 then { Warp.Listsched.code = [||]; issue = [||]; attempts = 0 }
  else begin
    let g = oracle_ddg ops in
    let height = Warp.Ddg.heights g in
    let issue = Array.make n (-1) in
    let scheduled = ref 0 and attempts = ref 0 in
    let wides = ref [] and cycle = ref 0 in
    while !scheduled < n do
      let ready =
        List.filter
          (fun i ->
            issue.(i) < 0
            && List.for_all
                 (fun (p, delay, dist) ->
                   dist > 0 || (issue.(p) >= 0 && !cycle >= issue.(p) + delay))
                 g.Warp.Ddg.preds.(i))
          (List.init n Fun.id)
        |> List.sort (fun a b -> compare (height.(b), a) (height.(a), b))
      in
      let wide = ref Warp.Mcode.empty_wide in
      List.iter
        (fun i ->
          incr attempts;
          let fu = Warp.Machine.fu_of ops.(i) in
          if Warp.Mcode.slot !wide fu = None then begin
            wide := Warp.Mcode.with_slot !wide fu ops.(i);
            issue.(i) <- !cycle;
            incr scheduled
          end)
        ready;
      wides := !wide :: !wides;
      incr cycle
    done;
    let finish =
      Array.to_list (Array.mapi (fun i op -> issue.(i) + Warp.Machine.latency op) ops)
      |> List.fold_left max !cycle
    in
    let code = Array.make finish Warp.Mcode.empty_wide in
    List.iteri (fun k w -> code.(!cycle - 1 - k) <- w) !wides;
    { Warp.Listsched.code; issue; attempts = !attempts }
  end

(* Oracle: the linear MII search over the edge list, gathered once per
   graph.  [Ok (ii, work)], or [Error work] when no II in range
   passes. *)
let oracle_mii (g : Warp.Ddg.t) : (int * int, int) result =
  let n = Array.length g.Warp.Ddg.ops in
  let edges = fst (edge_sets g) in
  let feasible ii =
    let dist = Array.make n 0 in
    let changed = ref true and rounds = ref 0 in
    while !changed && !rounds <= n do
      changed := false;
      incr rounds;
      List.iter
        (fun (d, src, dst, delay) ->
          let w = delay - (ii * d) in
          if dist.(src) + w > dist.(dst) then begin
            dist.(dst) <- dist.(src) + w;
            changed := true
          end)
        edges
    done;
    not !changed
  in
  let nedges = List.length edges in
  let lower = max (Warp.Modsched.res_mii g.Warp.Ddg.ops) (Warp.Modsched.self_rec_mii g) in
  let work = ref 0 in
  let rec tighten ii =
    if ii > lower + Warp.Modsched.max_ii_slack then Error !work
    else begin
      work := !work + (nedges / 8) + 1;
      if feasible ii then Ok (ii, !work) else tighten (ii + 1)
    end
  in
  tighten lower

let mii_outcome g =
  match Warp.Modsched.mii g with
  | r -> Ok r
  | exception Warp.Modsched.No_schedule w -> Error w

(* Random straight-line blocks over few registers and two arrays, so
   that register, memory and queue hazards (self-dependences included)
   are dense. *)
let gen_instr =
  let open QCheck.Gen in
  let reg = int_range 0 5 in
  let opnd =
    frequency [ (4, map (fun r -> Ir.Reg r) reg); (1, map (fun k -> Ir.Imm_int k) (int_range 0 3)) ]
  in
  let arr = oneofl [ "a"; "b" ] in
  let chan = oneofl [ W2.Ast.Chan_x; W2.Ast.Chan_y ] in
  let binop = oneofl Ir.[ Iadd; Isub; Imul; Idiv; Fadd; Fmul; Fdiv; Icmp Clt ] in
  frequency
    [
      (6, map3 (fun o d (a, b) -> Ir.Bin (o, d, a, b)) binop reg (pair opnd opnd));
      (1, map2 (fun d a -> Ir.Un (Ir.Fsqrt, d, a)) reg opnd);
      (1, map2 (fun d a -> Ir.Mov (d, a)) reg opnd);
      (1, map3 (fun d c (a, b) -> Ir.Sel (d, c, a, b)) reg opnd (pair opnd opnd));
      (2, map3 (fun d a i -> Ir.Load (d, a, i)) reg arr opnd);
      (2, map3 (fun a i v -> Ir.Store (a, i, v)) arr opnd opnd);
      (1, map2 (fun c v -> Ir.Send (c, v)) chan opnd);
      (1, map2 (fun c d -> Ir.Recv (c, d)) chan reg);
    ]

let print_block ops = String.concat "; " (Array.to_list (Array.map Ir.instr_to_string ops))
let arb_block = QCheck.make ~print:print_block QCheck.Gen.(array_size (int_range 1 40) gen_instr)

let prop_ddg_matches_all_pairs =
  QCheck.Test.make ~name:"indexed DDG = all-pairs DDG, edge for edge" ~count:300 arb_block
    (fun ops ->
      let g = Warp.Ddg.build ops and o = oracle_ddg ~loop:true ops in
      let gs, gp = edge_sets g and os, op = edge_sets o in
      gs = os && gp = op && gs = gp)

let prop_hazard_matches_list_based =
  QCheck.Test.make ~name:"footprint hazard = list-based hazard" ~count:2000
    (QCheck.make
       ~print:(fun (a, b) -> print_block [| a; b |])
       QCheck.Gen.(pair gen_instr gen_instr))
    (fun (a, b) ->
      Warp.Ddg.hazard (Warp.Ddg.footprint a) (Warp.Ddg.footprint b)
      = Option.value ~default:Warp.Ddg.independent (oracle_hazard_delay a b))

let prop_listsched_matches_rescan =
  QCheck.Test.make ~name:"incremental list scheduler = rescanning one" ~count:300 arb_block
    (fun ops ->
      let s = Warp.Listsched.run ops and o = oracle_listsched ops in
      s.Warp.Listsched.issue = o.Warp.Listsched.issue
      && s.Warp.Listsched.code = o.Warp.Listsched.code
      && s.Warp.Listsched.attempts = o.Warp.Listsched.attempts)

let prop_mii_matches_linear =
  QCheck.Test.make ~name:"bisected MII = linear MII, work included" ~count:300 arb_block
    (fun ops ->
      let g = Warp.Ddg.build ops in
      mii_outcome g = oracle_mii g)

let test_mii_out_of_range () =
  (* A five-divide recurrence needs II >= 60, far above ResMII (5) plus
     the slack: no II in range passes, and the whole range is charged. *)
  let ops =
    Array.init 5 (fun k -> Ir.Bin (Ir.Idiv, (k + 1) mod 5, Ir.Reg k, Ir.Imm_int 2))
  in
  let g = Warp.Ddg.build ops in
  let per_test = (List.length (fst (edge_sets g)) / 8) + 1 in
  Alcotest.(check bool) "same as linear" true (mii_outcome g = oracle_mii g);
  Alcotest.(check bool) "whole range charged" true
    (mii_outcome g = Error ((Warp.Modsched.max_ii_slack + 1) * per_test))

(* Loop bodies no II in range can schedule: a chain of 40-60 FALU adds
   through one accumulator (r6, which [gen_instr] never touches) takes
   at least 200 cycles round the loop, while the lower bound plus the
   slack stays below 125.  Random ops are shuffled in, so the chain's
   edges are spread over the block. *)
let arb_long_recurrence =
  let open QCheck.Gen in
  let link = map (fun r -> Ir.Bin (Ir.Fadd, 6, Ir.Reg 6, Ir.Reg r)) (int_range 0 5) in
  let body =
    int_range 40 60 >>= fun k ->
    list_repeat k link >>= fun chain ->
    list_size (int_range 0 30) gen_instr >>= fun extra ->
    map Array.of_list (shuffle_l (chain @ extra))
  in
  QCheck.make ~print:print_block body

let prop_mii_matches_linear_infeasible =
  QCheck.Test.make ~name:"out-of-range recurrences: bisected MII = linear MII, work included"
    ~count:30 arb_long_recurrence (fun ops ->
      let g = Warp.Ddg.build ops in
      match mii_outcome g with
      | Error _ as r -> r = oracle_mii g
      | Ok _ -> false)

(* The loop bodies code generation hands to the modulo scheduler: the
   pipeline candidates of [fn] after -O2, register-allocated and with
   block-local temporaries renamed, as in [Warp.Codegen.compile_function]. *)
let pipelined_bodies (fn : W2.Ast.func) =
  let sec = List.hd (Lower.lower_module (W2.Gen.module_of_function fn)) in
  let f = List.hd sec.Ir.funcs in
  ignore (Opt.optimize ~level:2 f);
  let fp = (Warp.Regalloc.run f).Warp.Regalloc.func in
  List.map
    (fun ((c : Counted.t), _) ->
      Warp.Rename_locals.run fp c.Counted.body_block;
      Array.of_list fp.Ir.blocks.(c.Counted.body_block).Ir.instrs)
    (Warp.Codegen.pipeline_candidates f)

let test_mii_medium_bodies () =
  (* f_medium's loop bodies have hundreds of ops and thousands of edges;
     one of them is infeasible at the top of the range, the case where
     the full Bellman-Ford run was most expensive. *)
  let fn = W2.Gen.function_of_lines ~name:"f_medium" (W2.Gen.size_lines W2.Gen.Medium) in
  let infeasible = ref 0 in
  List.iter
    (fun ops ->
      let g = Warp.Ddg.build ops in
      let r = mii_outcome g in
      Alcotest.(check bool) "same as linear" true (r = oracle_mii g);
      if Result.is_error r then incr infeasible)
    (pipelined_bodies fn);
  Alcotest.(check bool) (Printf.sprintf "%d infeasible bodies" !infeasible) true (!infeasible > 0)

(* Loop bodies shaped like renamed ones: op k defines register k and
   reads the few registers defined just before it (or its own, or the
   next one's, across the back edge).  About half of them pass the
   profitability cut, and most of those eject while placing. *)
let gen_loop_body =
  let open QCheck.Gen in
  int_range 8 40 >>= fun n ->
  let op k =
    let opnd =
      frequency
        [
          (6, map (fun d -> Ir.Reg (max 0 (min (n - 1) (k + d)))) (int_range (-4) 1));
          (1, map (fun c -> Ir.Imm_int c) (int_range 0 3));
        ]
    in
    let binop = oneofl Ir.[ Iadd; Isub; Imul; Fadd; Fmul; Fadd; Idiv ] in
    frequency
      [
        (8, map2 (fun o (a, b) -> Ir.Bin (o, k, a, b)) binop (pair opnd opnd));
        (2, map (fun i -> Ir.Load (k, "a", i)) opnd);
        (1, map2 (fun i v -> Ir.Store ("a", i, v)) opnd opnd);
      ]
  in
  let rec body k acc =
    if k = n then return (Array.of_list (List.rev acc))
    else op k >>= fun o -> body (k + 1) (o :: acc)
  in
  body 0 []

let modsched_outcome run ops =
  match run ops with
  | (r : Warp.Modsched.result) -> Ok (r.ii, r.sigma, r.makespan, r.attempts)
  | exception Warp.Modsched.No_schedule w -> Error w

let prop_modsched_matches_hashtbl =
  QCheck.Test.make ~name:"array reservation table = Hashtbl one, schedule and work" ~count:200
    (QCheck.make ~print:print_block gen_loop_body) (fun ops ->
      modsched_outcome Warp.Modsched.run ops = modsched_outcome Backend_oracle.Modsched.run ops)

(* The property above is only as good as the ejections it reaches: on a
   fixed draw, they happen. *)
let test_modsched_oracle_reaches_ejections () =
  let rand = Random.State.make [| 3 |] in
  let before = !Backend_oracle.Modsched.ejections in
  for _ = 1 to 20 do
    ignore (modsched_outcome Backend_oracle.Modsched.run (QCheck.Gen.generate1 ~rand gen_loop_body))
  done;
  let ejected = !Backend_oracle.Modsched.ejections - before in
  Alcotest.(check bool) (Printf.sprintf "%d ejections" ejected) true (ejected > 0)

(* [Warp.Ddg] promises no order within [succs] or [preds]: reversing
   every list moves no height, no MII bound and no MII search, work
   included. *)
let prop_edge_order_free =
  QCheck.Test.make ~name:"edge order is not a contract: heights and MII" ~count:300
    (QCheck.make ~print:print_block QCheck.Gen.(oneof [ QCheck.gen arb_block; gen_loop_body ]))
    (fun ops ->
      let g = Warp.Ddg.build ops in
      let r = { g with succs = Array.map List.rev g.succs; preds = Array.map List.rev g.preds } in
      Warp.Ddg.heights r = Warp.Ddg.heights g
      && Warp.Modsched.self_rec_mii r = Warp.Modsched.self_rec_mii g
      && mii_outcome r = mii_outcome g)

(* Work units and image bytes of the paper's five sizes, recorded before
   the schedulers' data structures were rebuilt: none may move. *)
let test_paper_sizes_golden () =
  List.iter
    (fun (size, sched_work, wides, md5) ->
      let name = W2.Gen.size_name size in
      let mw = Driver.Compile.compile_module (W2.Gen.module_of_function (W2.Gen.sized_function ~name size)) in
      let sw = List.hd mw.Driver.Compile.mw_sections in
      let fw = List.hd sw.Driver.Compile.sw_funcs in
      Alcotest.(check int) (name ^ " fw_sched_work") sched_work fw.Driver.Compile.fw_sched_work;
      Alcotest.(check int) (name ^ " fw_wides") wides fw.Driver.Compile.fw_wides;
      Alcotest.(check string) (name ^ " image MD5") md5
        (Digest.to_hex (Digest.string (Warp.Asm.encode sw.Driver.Compile.sw_image))))
    W2.Gen.
      [
        (Tiny, 3, 15, "f9e15d18aa5eece399384d099d068a09");
        (Small, 19016, 139, "76cb500b4dd376b5329a902c22aa8b81");
        (Medium, 19754, 516, "83dc6fc50794de418d818765983c6b0e");
        (Large, 1014, 1604, "cd820355eed9a0133b80a79bb4f897e7");
        (Huge, 1313, 1934, "9ed8ad188b0c20dd5a74a92762c5d70d");
      ]

(* Image bytes and phase-3 work of whole programs at -O2: a two-copy
   S_n of each paper size and the section-4.3 user program, recorded
   before the list scheduler took the nearest-access graph.  A backend
   speedup must leave every one of them alone. *)
let test_program_images_golden () =
  let programs =
    List.map (fun size -> (W2.Gen.size_name size, W2.Gen.s_program ~size ~count:2 ())) W2.Gen.all_sizes
    @ [ ("user", W2.Gen.user_program ()) ]
  in
  let golden =
    [
      ("f_tiny", [ ("sec1", "97be9aa6c56e0efcec3acfa3e15c6e5d", [ (3, 15); (3, 15) ]) ]);
      ("f_small", [ ("sec1", "5d450339673830bfcfbf453e865bd08e", [ (1666, 152); (253, 151) ]) ]);
      ("f_medium", [ ("sec1", "a8d0658feb06ad1e4c72347b8e5d01fa", [ (18285, 445); (20984, 471) ]) ]);
      ("f_large", [ ("sec1", "6415334e796274262924d66118267a3d", [ (1012, 1508); (997, 1357) ]) ]);
      ("f_huge", [ ("sec1", "245476a8c60d8e0d851d9e2e6ee90aa3", [ (1324, 1866); (1241, 1489) ]) ]);
      ( "user",
        [
          ("stage1", "76735f395cf2ad1cfeca3502ca3afa2e", [ (1041, 1318); (25906, 141); (1063, 181) ]);
          ("stage2", "26c5c9aa81d1243ba96aacd002d91315", [ (1102, 1486); (1401, 136); (103, 290) ]);
          ("stage3", "36489e60878fdca0c2a7e3b66f7a8c46", [ (1065, 1309); (1262, 147); (21, 105) ]);
        ] );
    ]
  in
  List.iter
    (fun (name, m) ->
      let mw = Driver.Compile.compile_module ~level:2 m in
      let got =
        List.map
          (fun (sw : Driver.Compile.section_work) ->
            ( sw.sw_name,
              Digest.to_hex (Digest.string (Warp.Asm.encode sw.sw_image)),
              List.map
                (fun (fw : Driver.Compile.func_work) -> (fw.fw_sched_work, fw.fw_wides))
                sw.sw_funcs ))
          mw.Driver.Compile.mw_sections
      in
      Alcotest.(check (list (triple string string (list (pair int int)))))
        name (List.assoc name golden) got)
    programs

(* Phase-2 work units and the optimized IR of the paper's five sizes at
   -O2 and -O3, recorded before liveness, DCE and value numbering were
   rebuilt on bitsets and arrays: none may move. *)
let test_paper_sizes_phase2_golden () =
  List.iter
    (fun (level, size, opt_work, md5) ->
      let name = W2.Gen.size_name size in
      let sec = List.hd (W2.Gen.module_of_function (W2.Gen.sized_function ~name size)).W2.Ast.sections in
      let fw, _, ir =
        Driver.Compile.compile_function ~level ~func_rets:(Driver.Compile.func_rets_of sec)
          ~section:sec.W2.Ast.sname (List.hd sec.W2.Ast.funcs)
      in
      let what = Printf.sprintf "%s -O%d" name level in
      Alcotest.(check int) (what ^ " fw_opt_work") opt_work fw.Driver.Compile.fw_opt_work;
      Alcotest.(check string) (what ^ " IR MD5") md5 (Digest.to_hex (Digest.string (Ir.func_to_string ir))))
    W2.Gen.
      [
        (2, Tiny, 117, "875ad4f00afb6b4f603b3205cd5566e1");
        (2, Small, 3145, "1364dfc81fd9df132e6cabf0a167c7d8");
        (2, Medium, 8995, "98f0e9c1bb2393b82366f1cb32c4509f");
        (2, Large, 29647, "5ce4a4df1fb0cda56290e6ba4cb9c111");
        (2, Huge, 38643, "392e0dab1005c75939c68e4e69b6540c");
        (3, Tiny, 149, "875ad4f00afb6b4f603b3205cd5566e1");
        (3, Small, 6549, "c04ac49b1bbc77a3244d066bb18b479e");
        (3, Medium, 11019, "98f0e9c1bb2393b82366f1cb32c4509f");
        (3, Large, 36343, "5ce4a4df1fb0cda56290e6ba4cb9c111");
        (3, Huge, 47371, "392e0dab1005c75939c68e4e69b6540c");
      ]

(* The optimizer and code generator on functions shaped like the
   benchmark corpora: W2.Gen.function_of_lines skeletons of the coarse
   size mix (f_medium, f_large, two f_small) and the fine mix (4 to 30
   lines), named as the corpora's first module at seeds 1 and 2.  Per
   function and level: the MD5 of the optimized IR, every Opt.stats
   field (rounds, folded, numbered, propagated, cse_global, eliminated,
   simplified, if_converted, hoisted, reduced, unrolled, work), then
   sched_work and wide_count.  Recorded before the optimizer's change
   stamp and its no-rebuild passes; they must not move. *)
let test_corpora_optimizer_golden () =
  List.iter
    (fun (name, lines, level, md5, stats, sched_work, wides) ->
      let f = W2.Gen.function_of_lines ~name lines in
      let sec = List.hd (W2.Gen.module_of_function f).W2.Ast.sections in
      let ir =
        Lower.lower_function ~func_rets:(Driver.Compile.func_rets_of sec) ~globals:[] f
      in
      let s = Opt.optimize ~level ir in
      let c = Warp.Codegen.compile_function ir in
      let what = Printf.sprintf "%s (%d lines) -O%d" name lines level in
      Alcotest.(check string) (what ^ " IR MD5") md5
        (Digest.to_hex (Digest.string (Ir.func_to_string ir)));
      Alcotest.(check (list int)) (what ^ " stats") stats
        Opt.
          [
            s.rounds; s.folded; s.numbered; s.propagated; s.cse_global; s.eliminated;
            s.simplified; s.if_converted; s.hoisted; s.reduced; s.unrolled; s.work;
          ];
      Alcotest.(check int) (what ^ " sched_work") sched_work c.Warp.Codegen.sched_work;
      Alcotest.(check int) (what ^ " wides") wides c.Warp.Codegen.wide_count)
    [
      ("s1_m0_f0", 100, 0, "868b5cb477c354ddbb6c51d2d8c23d16", [ 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0 ], 48487, 527);
      ("s1_m0_f0", 100, 1, "19d1eb96e9ecec6dc11f2fd06b420a32", [ 2; 0; 138; 2; 0; 82; 1; 0; 0; 0; 0; 3477 ], 20906, 484);
      ("s1_m0_f0", 100, 2, "0467ab9ae34c596e7783f441040c6f2e", [ 5; 0; 140; 2; 0; 86; 1; 1; 0; 0; 0; 9173 ], 20906, 471);
      ("s1_m0_f0", 100, 3, "0467ab9ae34c596e7783f441040c6f2e", [ 6; 0; 140; 2; 0; 86; 1; 1; 0; 0; 0; 11237 ], 20906, 471);
      ("s1_m0_f1", 280, 0, "8d046568cf2a0b39c290be3720490952", [ 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0 ], 1502, 1346);
      ("s1_m0_f1", 280, 1, "dc9073d78dc1b34f55a926c49ce51f7d", [ 2; 0; 687; 3; 0; 352; 1; 0; 0; 0; 0; 10809 ], 994, 1331);
      ("s1_m0_f1", 280, 2, "1680dcec09e96d291806df340329e170", [ 5; 0; 689; 3; 0; 356; 1; 1; 2; 0; 0; 27967 ], 995, 1318);
      ("s1_m0_f1", 280, 3, "1680dcec09e96d291806df340329e170", [ 6; 0; 689; 3; 0; 356; 1; 1; 2; 0; 0; 34199 ], 995, 1318);
      ("s1_m0_f2", 35, 0, "19c960cdaf9d6440dacffa4dfd5df641", [ 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0 ], 1319, 202);
      ("s1_m0_f2", 35, 1, "34ea8470bbb2adfaae2b7b273c157a5d", [ 5; 2; 8; 3; 0; 18; 1; 0; 0; 0; 0; 1409 ], 544, 180);
      ("s1_m0_f2", 35, 2, "938942eea71b12888e0f486ca429a0da", [ 8; 2; 10; 3; 0; 22; 1; 1; 0; 0; 0; 2287 ], 544, 167);
      ("s1_m0_f2", 35, 3, "04c5d4b2d8ee69f2869fa271c584a366", [ 14; 9; 37; 3; 0; 54; 1; 1; 0; 0; 1; 5323 ], 78, 151);
      ("s1_m0_f3", 35, 0, "70fe964c577632348df8bbc8b55a3f9d", [ 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0 ], 1429, 213);
      ("s1_m0_f3", 35, 1, "e7f23cb44ff49f25377f4b8a2316cb92", [ 2; 0; 7; 1; 0; 14; 1; 0; 0; 0; 0; 637 ], 2209, 194);
      ("s1_m0_f3", 35, 2, "b0161086aba0982f9ca428f5d9b92f9a", [ 5; 0; 9; 1; 0; 18; 1; 1; 0; 0; 0; 1625 ], 2209, 181);
      ("s1_m0_f3", 35, 3, "d1a5914c896ade0e8a0ade3ef40adf3c", [ 15; 9; 48; 1; 0; 68; 1; 1; 0; 0; 1; 6711 ], 79, 163);
      ("s2_m0_f0", 100, 0, "55d2a276732e814dfd39324fdda76896", [ 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0 ], 37440, 374);
      ("s2_m0_f0", 100, 1, "efe56ce7d2b471eeaadddda4130ecd82", [ 5; 0; 176; 2; 0; 105; 1; 0; 0; 0; 0; 7043 ], 18400, 359);
      ("s2_m0_f0", 100, 2, "e5b103e9756117fbe4da5b090f9c35df", [ 8; 0; 178; 2; 0; 109; 1; 1; 1; 0; 0; 11793 ], 17904, 352);
      ("s2_m0_f0", 100, 3, "e5b103e9756117fbe4da5b090f9c35df", [ 9; 0; 178; 2; 0; 109; 1; 1; 1; 0; 0; 13513 ], 17904, 352);
      ("s2_m0_f1", 280, 0, "dfeffa390f44eb3b83f4b586f4c4e020", [ 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0 ], 1567, 1461);
      ("s2_m0_f1", 280, 1, "46b3a66d2cfe95c736d2c5b40eedbbad", [ 2; 0; 755; 3; 0; 373; 1; 0; 0; 0; 0; 11325 ], 949, 1447);
      ("s2_m0_f1", 280, 2, "5db4ecd05d1a78ae2f881943febd30de", [ 5; 0; 757; 3; 0; 377; 1; 1; 2; 0; 0; 29275 ], 948, 1440);
      ("s2_m0_f1", 280, 3, "5db4ecd05d1a78ae2f881943febd30de", [ 6; 0; 757; 3; 0; 377; 1; 1; 2; 0; 0; 35795 ], 948, 1440);
      ("s2_m0_f2", 35, 0, "8e3cfa7375ec973e06287a4ed644c028", [ 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0 ], 2016, 178);
      ("s2_m0_f2", 35, 1, "0962be0f56d78640f2e1faaba75eae8f", [ 2; 0; 6; 1; 0; 18; 1; 0; 0; 0; 0; 509 ], 1538, 157);
      ("s2_m0_f2", 35, 2, "3afeb9eeda04f95876799187c9fa0c0a", [ 5; 0; 8; 1; 0; 22; 1; 1; 0; 0; 0; 1233 ], 1538, 144);
      ("s2_m0_f2", 35, 3, "f1acf400b4a09031df1c2f8482465c63", [ 9; 5; 29; 1; 0; 45; 1; 1; 0; 0; 1; 2875 ], 64, 129);
      ("s2_m0_f3", 35, 0, "26620858ec32d2bed6f88cca42671e80", [ 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0 ], 720, 115);
      ("s2_m0_f3", 35, 1, "b83d15510f093ca4ce041a5f4feedcf3", [ 5; 0; 5; 1; 0; 20; 1; 0; 0; 0; 0; 1429 ], 12113, 157);
      ("s2_m0_f3", 35, 2, "091c9149ecf42a9c8cd961fad9dc743f", [ 8; 0; 7; 1; 0; 24; 1; 1; 0; 0; 0; 2285 ], 12113, 144);
      ("s2_m0_f3", 35, 3, "0a34d2dc35490515efe9fb98d5d1b017", [ 13; 6; 37; 1; 0; 57; 1; 1; 0; 0; 1; 4723 ], 82, 129);
      ("s1_m0_f0", 4, 0, "81ebc2eb1ae44a0b67e15c40a00fb62d", [ 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0 ], 3, 15);
      ("s1_m0_f0", 4, 1, "dab0b54e9e3f568315e7fb6de6091ccb", [ 2; 0; 0; 0; 0; 0; 1; 0; 0; 0; 0; 53 ], 3, 15);
      ("s1_m0_f0", 4, 2, "dab0b54e9e3f568315e7fb6de6091ccb", [ 4; 0; 0; 0; 0; 0; 1; 0; 0; 0; 0; 117 ], 3, 15);
      ("s1_m0_f0", 4, 3, "dab0b54e9e3f568315e7fb6de6091ccb", [ 5; 0; 0; 0; 0; 0; 1; 0; 0; 0; 0; 149 ], 3, 15);
      ("s1_m0_f1", 9, 0, "52a149853dac7fe76a44ceef2783bc2e", [ 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0 ], 20, 52);
      ("s1_m0_f1", 9, 1, "e6957fccb25fbaaac015a6fbeaf99ea3", [ 2; 0; 7; 0; 0; 5; 1; 0; 0; 0; 0; 181 ], 15, 48);
      ("s1_m0_f1", 9, 2, "e6957fccb25fbaaac015a6fbeaf99ea3", [ 4; 0; 7; 0; 0; 5; 1; 0; 0; 0; 0; 389 ], 15, 48);
      ("s1_m0_f1", 9, 3, "e6957fccb25fbaaac015a6fbeaf99ea3", [ 5; 0; 7; 0; 0; 5; 1; 0; 0; 0; 0; 493 ], 15, 48);
      ("s1_m0_f2", 14, 0, "c7a7827885d90adbc574f28bf2562568", [ 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0 ], 21, 64);
      ("s1_m0_f2", 14, 1, "dbdda74a00d00b6fc6128b628d0ace30", [ 2; 0; 9; 0; 0; 10; 1; 0; 0; 0; 0; 189 ], 11, 55);
      ("s1_m0_f2", 14, 2, "dbdda74a00d00b6fc6128b628d0ace30", [ 4; 0; 9; 0; 0; 10; 1; 0; 0; 0; 0; 381 ], 11, 55);
      ("s1_m0_f2", 14, 3, "dbdda74a00d00b6fc6128b628d0ace30", [ 5; 0; 9; 0; 0; 10; 1; 0; 0; 0; 0; 477 ], 11, 55);
      ("s1_m0_f3", 19, 0, "cc7f3ec9c6f97f8672f8ea36e66ec146", [ 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0 ], 31, 94);
      ("s1_m0_f3", 19, 1, "2f06cdd6c6ddc584d1f27eef93c476f0", [ 2; 0; 14; 0; 0; 15; 1; 0; 0; 0; 0; 269 ], 16, 80);
      ("s1_m0_f3", 19, 2, "2f06cdd6c6ddc584d1f27eef93c476f0", [ 4; 0; 14; 0; 0; 15; 1; 0; 0; 0; 0; 541 ], 16, 80);
      ("s1_m0_f3", 19, 3, "2f06cdd6c6ddc584d1f27eef93c476f0", [ 5; 0; 14; 0; 0; 15; 1; 0; 0; 0; 0; 677 ], 16, 80);
      ("s1_m0_f4", 24, 0, "cc77c6c195331813e6ccf12904b4da1a", [ 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0 ], 77, 304);
      ("s1_m0_f4", 24, 1, "cd73bb5085e22abd0a2d4f93b16ae5b3", [ 2; 0; 37; 0; 0; 20; 1; 0; 0; 0; 0; 781 ], 57, 285);
      ("s1_m0_f4", 24, 2, "cd73bb5085e22abd0a2d4f93b16ae5b3", [ 4; 0; 37; 0; 0; 20; 1; 0; 0; 0; 0; 1709 ], 57, 285);
      ("s1_m0_f4", 24, 3, "cd73bb5085e22abd0a2d4f93b16ae5b3", [ 5; 0; 37; 0; 0; 20; 1; 0; 0; 0; 0; 2173 ], 57, 285);
      ("s1_m0_f5", 30, 0, "03145255b58ba176c552c44ab5e84c55", [ 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0 ], 53, 160);
      ("s1_m0_f5", 30, 1, "19eac11131fbeaf67b40e484ad9cd55a", [ 2; 0; 25; 0; 0; 26; 1; 0; 0; 0; 0; 445 ], 27, 135);
      ("s1_m0_f5", 30, 2, "19eac11131fbeaf67b40e484ad9cd55a", [ 4; 0; 25; 0; 0; 26; 1; 0; 0; 0; 0; 893 ], 27, 135);
      ("s1_m0_f5", 30, 3, "19eac11131fbeaf67b40e484ad9cd55a", [ 5; 0; 25; 0; 0; 26; 1; 0; 0; 0; 0; 1117 ], 27, 135);
      ("s2_m0_f0", 4, 0, "d6356dc70f093b252856f01ff90ec3be", [ 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0 ], 3, 15);
      ("s2_m0_f0", 4, 1, "9ea3f1b4df15963744401be9b5bfaabf", [ 2; 0; 0; 0; 0; 0; 1; 0; 0; 0; 0; 53 ], 3, 15);
      ("s2_m0_f0", 4, 2, "9ea3f1b4df15963744401be9b5bfaabf", [ 4; 0; 0; 0; 0; 0; 1; 0; 0; 0; 0; 117 ], 3, 15);
      ("s2_m0_f0", 4, 3, "9ea3f1b4df15963744401be9b5bfaabf", [ 5; 0; 0; 0; 0; 0; 1; 0; 0; 0; 0; 149 ], 3, 15);
      ("s2_m0_f1", 9, 0, "237b7d13aaeb31712ccbe61536c0b033", [ 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0 ], 11, 34);
      ("s2_m0_f1", 9, 1, "693789ae6dbd986ad964abd443df2eff", [ 2; 0; 4; 0; 0; 5; 1; 0; 0; 0; 0; 109 ], 6, 30);
      ("s2_m0_f1", 9, 2, "693789ae6dbd986ad964abd443df2eff", [ 4; 0; 4; 0; 0; 5; 1; 0; 0; 0; 0; 221 ], 6, 30);
      ("s2_m0_f1", 9, 3, "693789ae6dbd986ad964abd443df2eff", [ 5; 0; 4; 0; 0; 5; 1; 0; 0; 0; 0; 277 ], 6, 30);
      ("s2_m0_f2", 14, 0, "4d966dbb4fc2a65e7ce4664c6ffd78a8", [ 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0 ], 21, 64);
      ("s2_m0_f2", 14, 1, "b32beb1473dddda4031f8ab8a48cfb81", [ 2; 0; 9; 0; 0; 10; 1; 0; 0; 0; 0; 189 ], 11, 55);
      ("s2_m0_f2", 14, 2, "b32beb1473dddda4031f8ab8a48cfb81", [ 4; 0; 9; 0; 0; 10; 1; 0; 0; 0; 0; 381 ], 11, 55);
      ("s2_m0_f2", 14, 3, "b32beb1473dddda4031f8ab8a48cfb81", [ 5; 0; 9; 0; 0; 10; 1; 0; 0; 0; 0; 477 ], 11, 55);
      ("s2_m0_f3", 19, 0, "7c20c91cc4518d92006ff0095de49a49", [ 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0 ], 31, 94);
      ("s2_m0_f3", 19, 1, "d06512614260bb49b9733b03a5c5d50f", [ 2; 0; 14; 0; 0; 15; 1; 0; 0; 0; 0; 269 ], 16, 80);
      ("s2_m0_f3", 19, 2, "d06512614260bb49b9733b03a5c5d50f", [ 4; 0; 14; 0; 0; 15; 1; 0; 0; 0; 0; 541 ], 16, 80);
      ("s2_m0_f3", 19, 3, "d06512614260bb49b9733b03a5c5d50f", [ 5; 0; 14; 0; 0; 15; 1; 0; 0; 0; 0; 677 ], 16, 80);
      ("s2_m0_f4", 24, 0, "06f659eae9a9bc1ed70e295a0063a1e2", [ 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0 ], 41, 124);
      ("s2_m0_f4", 24, 1, "4d7ba5a335c286820f36823467f043ee", [ 2; 0; 19; 0; 0; 20; 1; 0; 0; 0; 0; 349 ], 21, 105);
      ("s2_m0_f4", 24, 2, "4d7ba5a335c286820f36823467f043ee", [ 4; 0; 19; 0; 0; 20; 1; 0; 0; 0; 0; 701 ], 21, 105);
      ("s2_m0_f4", 24, 3, "4d7ba5a335c286820f36823467f043ee", [ 5; 0; 19; 0; 0; 20; 1; 0; 0; 0; 0; 877 ], 21, 105);
      ("s2_m0_f5", 30, 0, "19f04dfa437f9f06aea822f0136243d6", [ 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0 ], 125, 304);
      ("s2_m0_f5", 30, 1, "bc8871b91d53ca7814f1fe019d33b9cb", [ 2; 0; 49; 0; 0; 26; 1; 0; 0; 0; 0; 1021 ], 99, 279);
      ("s2_m0_f5", 30, 2, "bc8871b91d53ca7814f1fe019d33b9cb", [ 4; 0; 49; 0; 0; 26; 1; 0; 0; 0; 0; 2237 ], 99, 279);
      ("s2_m0_f5", 30, 3, "bc8871b91d53ca7814f1fe019d33b9cb", [ 5; 0; 49; 0; 0; 26; 1; 0; 0; 0; 0; 2845 ], 99, 279);
    ]

(* A one-block function whose ops issue at the given cycles. *)
let verify_placed (placed : (int * Ir.instr) list) =
  let len = 1 + List.fold_left (fun acc (c, _) -> max acc c) 0 placed in
  let code = Array.make len Warp.Mcode.empty_wide in
  List.iter
    (fun (c, op) -> code.(c) <- Warp.Mcode.with_slot code.(c) (Warp.Machine.fu_of op) op)
    placed;
  let mf =
    {
      Warp.Mcode.mf_name = "f";
      param_locs = [];
      mf_arrays = [ ("a", 16, Ir.Float) ];
      mblocks = [| { Warp.Mcode.code; mterm = Warp.Mcode.Tret None; mb_pipelined = false } |];
    }
  in
  Warp.Verify.image
    { Warp.Mcode.img_section = "s"; img_cells = 1; funcs = [| mf |]; symbols = [ ("f", 0) ] }
  |> List.map Warp.Verify.violation_to_string

let test_verify_rejects_early_consumer () =
  (* fadd reads the fmul's result, which lands 5 cycles after issue. *)
  let mul = Ir.Bin (Ir.Fmul, 2, Ir.Reg 0, Ir.Reg 1) in
  let add = Ir.Bin (Ir.Fadd, 3, Ir.Reg 2, Ir.Reg 0) in
  Alcotest.(check (list string)) "legal at its delay" [] (verify_placed [ (0, mul); (5, add) ]);
  match verify_placed [ (0, mul); (4, add) ] with
  | [ v ] -> Alcotest.(check bool) v true (Tutil.contains v "dependence violated")
  | vs -> Alcotest.failf "expected one violation, got %d" (List.length vs)

let test_verify_rejects_same_cycle_cycle () =
  (* Each op reads what the other writes: no order within one cycle
     satisfies both true dependences. *)
  let load = Ir.Load (1, "a", Ir.Reg 0) in
  let add = Ir.Bin (Ir.Fadd, 0, Ir.Reg 1, Ir.Imm_float 1.0) in
  match verify_placed [ (0, load); (0, add) ] with
  | [ v ] -> Alcotest.(check bool) v true (Tutil.contains v "irreconcilable")
  | vs -> Alcotest.failf "expected one violation, got %d" (List.length vs)

(* --- the nearest-access list-scheduling graph and the windowed image
   verifier, against the all-pairs versions in backend_oracle.ml --- *)

module B = Backend_oracle

(* The call-free runs of a block: what the list scheduler sees once
   calls have become terminators. *)
let call_free_runs (b : Ir.block) : Ir.instr array list =
  let flush run acc = if run = [] then acc else Array.of_list (List.rev run) :: acc in
  let run, acc =
    List.fold_left
      (fun (run, acc) i -> match i with Ir.Call _ -> ([], flush run acc) | _ -> (i :: run, acc))
      ([], []) b.Ir.instrs
  in
  List.rev (flush run acc)

let runs_of (f : Ir.func) = List.concat_map call_free_runs (Array.to_list f.Ir.blocks)

(* The blocks of each function of [m] as lowered, as optimized at
   [level], and as register-allocated — with the allocated function,
   whose registers and arrays the verifier checks. *)
let backend_blocks ~level (m : W2.Ast.modul) : Ir.instr array list * (Ir.func * Ir.instr array list) list =
  let lowered = ref [] and allocated = ref [] in
  List.iter
    (fun (sec : Ir.section) ->
      List.iter
        (fun (f : Ir.func) ->
          lowered := runs_of f @ !lowered;
          ignore (Opt.optimize ~level f);
          lowered := runs_of f @ !lowered;
          let a = (Warp.Regalloc.run f).Warp.Regalloc.func in
          allocated := (a, runs_of a) :: !allocated)
        sec.Ir.funcs)
    (Lower.lower_module m);
  (!lowered, !allocated)

let same_schedule ops =
  compare (Warp.Listsched.run ops) (B.Listsched.run ops) = 0

let random_module (seed, size) =
  W2.Gen.module_of_function (W2.Gen.random_function ~allow_channels:true ~seed ~size ())

let arb_compiled =
  QCheck.make
    ~print:(fun ((seed, size), level) -> Printf.sprintf "seed %d size %d -O%d" seed size level)
    QCheck.Gen.(pair (pair (int_bound 10_000) (int_range 1 39)) (int_range 0 3))

let prop_listsched_nearest_on_compiled =
  QCheck.Test.make ~name:"nearest-access list schedule = all-pairs one on compiled blocks"
    ~count:60 arb_compiled
    (fun (fn, level) ->
      let lowered, allocated = backend_blocks ~level (random_module fn) in
      List.for_all same_schedule (lowered @ List.concat_map snd allocated))

let test_listsched_nearest_paper_sizes () =
  let modules =
    W2.Gen.user_program ()
    :: List.map (fun size -> W2.Gen.s_program ~size ~count:2 ()) W2.Gen.all_sizes
  in
  List.iter
    (fun m ->
      let lowered, allocated = backend_blocks ~level:2 m in
      List.iter
        (fun ops ->
          if not (same_schedule ops) then
            Alcotest.failf "%s: %d-op block schedules differently" m.W2.Ast.mname (Array.length ops))
        (lowered @ List.concat_map snd allocated))
    modules

(* A list schedule as (cycle, op) placements, perturbed [k] times: an op
   moves up to four cycles either way (trading places with the op on
   its unit there, if any), or two ops of one unit swap cycles.  Slots
   stay consistent, so only dependence violations can appear. *)
let perturbed rng ops k : Warp.Mcode.wide array =
  let s = Warp.Listsched.run ops in
  let cyc = Array.copy s.Warp.Listsched.issue in
  let n = Array.length ops in
  let fu i = Warp.Machine.fu_of ops.(i) in
  let occupant c u =
    let rec go i = if i >= n then None else if cyc.(i) = c && fu i = u then Some i else go (i + 1) in
    go 0
  in
  let swap i j =
    let c = cyc.(i) in
    cyc.(i) <- cyc.(j);
    cyc.(j) <- c
  in
  for _ = 1 to k do
    let i = Random.State.int rng n in
    if Random.State.bool rng then begin
      let c = max 0 (cyc.(i) + Random.State.int rng 9 - 4) in
      match occupant c (fu i) with Some j -> swap i j | None -> cyc.(i) <- c
    end
    else
      match List.filter (fun j -> j <> i && fu j = fu i) (List.init n Fun.id) with
      | [] -> ()
      | same -> swap i (List.nth same (Random.State.int rng (List.length same)))
  done;
  let len = Array.fold_left max (Array.length s.Warp.Listsched.code - 1) cyc + 1 in
  let code = Array.make len Warp.Mcode.empty_wide in
  Array.iteri (fun i op -> code.(cyc.(i)) <- Warp.Mcode.with_slot code.(cyc.(i)) (fu i) op) ops;
  code

let perturbed_image rng (f : Ir.func) runs : Warp.Mcode.image =
  let block ops =
    let k = 1 + Random.State.int rng 4 in
    { Warp.Mcode.code = perturbed rng ops k; mterm = Warp.Mcode.Tret None; mb_pipelined = false }
  in
  let mf =
    {
      Warp.Mcode.mf_name = f.Ir.name;
      param_locs = [];
      mf_arrays = f.Ir.arrays;
      mblocks = Array.of_list (List.map block runs);
    }
  in
  { Warp.Mcode.img_section = "s"; img_cells = 1; funcs = [| mf |]; symbols = [ (f.Ir.name, 0) ] }

(* Old and new violation lists of the perturbed images of [m]'s
   register-allocated blocks. *)
let verify_pairs ~level ~rng m =
  List.map
    (fun (f, runs) ->
      let img = perturbed_image rng f runs in
      (List.map Warp.Verify.violation_to_string (Warp.Verify.image img), B.Verify.image img))
    (snd (backend_blocks ~level m))

let prop_verify_window_on_perturbed =
  QCheck.Test.make ~name:"windowed verifier = all-pairs one on perturbed schedules" ~count:60
    (QCheck.pair arb_compiled QCheck.small_nat)
    (fun ((fn, level), pseed) ->
      let rng = Random.State.make [| pseed |] in
      List.for_all (fun (v, o) -> v = o) (verify_pairs ~level ~rng (random_module fn)))

(* The property above is only as good as the violations it reaches: on
   a fixed draw, dependence violations (the ones the window can miss)
   appear, in the same lists.  Same-cycle pairs are always inside the
   window. *)
let test_verify_window_reaches_violations () =
  let rng = Random.State.make [| 7 |] in
  let dep = ref 0 in
  for seed = 1 to 12 do
    List.iter
      (fun (v, o) ->
        Alcotest.(check (list string)) "same violations" o v;
        List.iter (fun x -> if Tutil.contains x "dependence violated" then incr dep) v)
      (verify_pairs ~level:2 ~rng (random_module (seed, 30)))
  done;
  Alcotest.(check bool) (Printf.sprintf "%d dependence violations" !dep) true (!dep > 0)

let oracle_suites =
  [
    ( "warp.oracles",
      [
        QCheck_alcotest.to_alcotest prop_ddg_matches_all_pairs;
        QCheck_alcotest.to_alcotest prop_hazard_matches_list_based;
        QCheck_alcotest.to_alcotest prop_listsched_matches_rescan;
        QCheck_alcotest.to_alcotest prop_mii_matches_linear;
        Alcotest.test_case "mii out of range" `Quick test_mii_out_of_range;
        QCheck_alcotest.to_alcotest prop_mii_matches_linear_infeasible;
        Alcotest.test_case "mii on f_medium loop bodies" `Quick test_mii_medium_bodies;
        QCheck_alcotest.to_alcotest prop_modsched_matches_hashtbl;
        Alcotest.test_case "reservation-table oracle reaches ejections" `Quick
          test_modsched_oracle_reaches_ejections;
        QCheck_alcotest.to_alcotest prop_edge_order_free;
        Alcotest.test_case "paper sizes golden" `Quick test_paper_sizes_golden;
        Alcotest.test_case "paper sizes phase-2 golden" `Quick test_paper_sizes_phase2_golden;
        Alcotest.test_case "program images golden" `Quick test_program_images_golden;
        Alcotest.test_case "benchmark corpora optimizer golden" `Quick
          test_corpora_optimizer_golden;
        Alcotest.test_case "verify: early consumer" `Quick test_verify_rejects_early_consumer;
        Alcotest.test_case "verify: same-cycle cycle" `Quick test_verify_rejects_same_cycle_cycle;
        QCheck_alcotest.to_alcotest prop_listsched_nearest_on_compiled;
        Alcotest.test_case "nearest-access list schedule: paper sizes" `Quick
          test_listsched_nearest_paper_sizes;
        QCheck_alcotest.to_alcotest prop_verify_window_on_perturbed;
        Alcotest.test_case "verify window reaches violations" `Quick
          test_verify_window_reaches_violations;
      ] );
  ]

let suites = suites @ oracle_suites
