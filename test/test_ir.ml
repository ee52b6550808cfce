(* Middle-end tests: lowering, CFG utilities, dominators, liveness,
   loops, and — most importantly — differential testing of every
   optimization level against the reference interpreter. *)

open Midend

let parse_module src =
  let m = W2.Parser.module_of_string src in
  W2.Semcheck.check_module_exn m;
  m

let lower_first src = List.hd (Lower.lower_module (parse_module src))

let sample =
  {|
module m
  section s cells 1
  function poly(x: int) : int
    var i : int;
    var acc : int;
  begin
    acc := 0;
    for i := 1 to x do
      acc := acc + i * 3;
    end;
    return acc * 1 + 0;
  end
  end
end
|}

(* --- lowering basics --- *)

let test_lower_shape () =
  let sec = lower_first sample in
  let f = List.hd sec.Ir.funcs in
  Alcotest.(check string) "name" "poly" f.Ir.name;
  Alcotest.(check bool) "has blocks" true (Array.length f.Ir.blocks >= 4);
  Alcotest.(check int) "one param" 1 (List.length f.Ir.params)

let test_lower_runs () =
  let sec = lower_first sample in
  match Ir_interp.run_function sec ~name:"poly" ~args:[ Ir_interp.Vi 4 ] with
  | Some (Ir_interp.Vi 30) -> ()
  | Some v -> Alcotest.failf "poly(4) = %s, wanted 30" (Ir_interp.value_to_string v)
  | None -> Alcotest.fail "poly returned nothing"

let test_lower_rejects_nothing_checked () =
  (* Lowering trusts the checker: a checked module never raises. *)
  let m = parse_module sample in
  ignore (Lower.lower_module m)

(* --- cfg --- *)

let test_unreachable_removal () =
  let sec = lower_first sample in
  let f = List.hd sec.Ir.funcs in
  (* Lowering a [return] mid-body leaves unreachable blocks in some
     shapes; force one artificially. *)
  ignore (Cfg.remove_unreachable f);
  let n = Array.length f.Ir.blocks in
  f.Ir.blocks <- Array.append f.Ir.blocks [| { Ir.instrs = []; term = Ir.Ret None } |];
  let removed = Cfg.remove_unreachable f in
  Alcotest.(check int) "one removed" 1 removed;
  Alcotest.(check int) "size restored" n (Array.length f.Ir.blocks)

let test_rpo_starts_at_entry () =
  let sec = lower_first sample in
  let f = List.hd sec.Ir.funcs in
  match Cfg.reverse_postorder f with
  | [] -> Alcotest.fail "empty RPO"
  | first :: _ -> Alcotest.(check int) "entry first" Ir.entry_block first

let test_preds_match_succs () =
  let sec = lower_first sample in
  let f = List.hd sec.Ir.funcs in
  let succs = Cfg.successors f in
  let preds = Cfg.predecessors f in
  Array.iteri
    (fun i ss ->
      List.iter
        (fun s ->
          Alcotest.(check bool)
            (Printf.sprintf "%d in preds of %d" i s)
            true (List.mem i preds.(s)))
        ss)
    succs

(* --- dominators --- *)

let test_dominators () =
  let sec = lower_first sample in
  let f = List.hd sec.Ir.funcs in
  ignore (Cfg.remove_unreachable f);
  let dom = Dom.compute f in
  let n = Array.length f.Ir.blocks in
  for b = 0 to n - 1 do
    Alcotest.(check bool)
      (Printf.sprintf "entry dominates %d" b)
      true
      (Dom.dominates dom Ir.entry_block b)
  done;
  Alcotest.(check bool) "self-domination" true (Dom.dominates dom 1 1)

(* --- loops --- *)

let test_loop_found () =
  let sec = lower_first sample in
  let f = List.hd sec.Ir.funcs in
  let loops = Loops.find f in
  Alcotest.(check int) "one loop" 1 (List.length loops);
  let l = List.hd loops in
  Alcotest.(check bool) "header in body" true (Loops.Iset.mem l.Loops.header l.Loops.body);
  Alcotest.(check bool) "has exit" true (l.Loops.exits <> [])

let test_nesting_depth () =
  let nested =
    {|
module m
  section s cells 1
  function f() : int
    var i : int;
    var j : int;
    var s : int;
  begin
    s := 0;
    for i := 0 to 3 do
      for j := 0 to 3 do
        s := s + 1;
      end;
    end;
    return s;
  end
  end
end
|}
  in
  let f = List.hd (lower_first nested).Ir.funcs in
  Alcotest.(check int) "depth 2" 2 (Loops.nesting_depth f)

(* --- individual passes --- *)

let count_instrs f = Ir.instr_count f

let test_constfold_folds () =
  let sec = lower_first sample in
  let f = List.hd sec.Ir.funcs in
  (* [acc * 1 + 0] must disappear. *)
  let changed = Constfold.run f in
  Alcotest.(check bool) "folded something" true (changed > 0)

let test_dce_removes_dead () =
  let src =
    {|
module m
  section s cells 1
  function f(x: int) : int
    var dead : int;
  begin
    dead := x * 123;
    return x;
  end
  end
end
|}
  in
  let f = List.hd (lower_first src).Ir.funcs in
  let before = count_instrs f in
  let removed = Dce.run f in
  Alcotest.(check bool) "removed" true (removed >= 1);
  Alcotest.(check bool) "smaller" true (count_instrs f < before)

let test_lvn_cse () =
  let src =
    {|
module m
  section s cells 1
  function f(x: int) : int
    var a : int;
    var b : int;
  begin
    a := x * 7 + 1;
    b := x * 7 + 1;
    return a + b;
  end
  end
end
|}
  in
  let f = List.hd (lower_first src).Ir.funcs in
  let changed = Lvn.run f in
  Alcotest.(check bool) "cse fired" true (changed >= 1)

let test_licm_hoists () =
  let src =
    {|
module m
  section s cells 1
  function f(x: int) : int
    var i : int;
    var s : int;
  begin
    s := 0;
    for i := 0 to 9 do
      s := s + x * x;
    end;
    return s;
  end
  end
end
|}
  in
  let f = List.hd (lower_first src).Ir.funcs in
  ignore (Constfold.run f);
  ignore (Lvn.run f);
  let hoisted = Licm.run f in
  Alcotest.(check bool) "hoisted x*x" true (hoisted >= 1);
  (* Semantics preserved. *)
  match
    Ir_interp.run_function
      { Ir.sec_name = "s"; cells = 1; funcs = [ f ] }
      ~name:"f" ~args:[ Ir_interp.Vi 3 ]
  with
  | Some (Ir_interp.Vi 90) -> ()
  | other ->
    Alcotest.failf "f(3) after licm = %s"
      (match other with Some v -> Ir_interp.value_to_string v | None -> "none")

let test_strength_reduces () =
  let src =
    {|
module m
  section s cells 1
  function f(n: int) : int
    var i : int;
    var s : int;
  begin
    s := 0;
    for i := 0 to n do
      s := s + i * 12;
    end;
    return s;
  end
  end
end
|}
  in
  let f = List.hd (lower_first src).Ir.funcs in
  let reduced = Strength.run f in
  Alcotest.(check bool) "reduced" true (reduced >= 1);
  match
    Ir_interp.run_function
      { Ir.sec_name = "s"; cells = 1; funcs = [ f ] }
      ~name:"f" ~args:[ Ir_interp.Vi 5 ]
  with
  | Some (Ir_interp.Vi 180) -> ()
  | other ->
    Alcotest.failf "f(5) after strength reduction = %s"
      (match other with Some v -> Ir_interp.value_to_string v | None -> "none")

let test_unroll_flattens () =
  let src =
    {|
module m
  section s cells 1
  function f() : int
    var i : int;
    var s : int;
  begin
    s := 0;
    for i := 0 to 3 do
      s := s + 2;
    end;
    return s;
  end
  end
end
|}
  in
  let f = List.hd (lower_first src).Ir.funcs in
  (* Cleanup turns the limit into a recognisable constant. *)
  ignore (Constfold.run f);
  ignore (Lvn.run f);
  ignore (Gcp.run f);
  ignore (Dce.run f);
  ignore (Cfg.simplify f);
  let unrolled = Unroll.run f in
  Alcotest.(check bool) "unrolled" true (unrolled >= 1);
  Alcotest.(check int) "no loops left" 0 (List.length (Loops.find f));
  match
    Ir_interp.run_function
      { Ir.sec_name = "s"; cells = 1; funcs = [ f ] }
      ~name:"f" ~args:[]
  with
  | Some (Ir_interp.Vi 8) -> ()
  | other ->
    Alcotest.failf "f() after unroll = %s"
      (match other with Some v -> Ir_interp.value_to_string v | None -> "none")

let test_opt_levels_monotone_size () =
  let m = W2.Gen.module_of_function (W2.Gen.sized_function ~name:"f" W2.Gen.Medium) in
  let sizes =
    List.map
      (fun level ->
        let sec = List.hd (Lower.lower_module m) in
        List.iter (fun f -> ignore (Opt.optimize ~level f)) sec.Ir.funcs;
        List.fold_left (fun acc f -> acc + Ir.instr_count f) 0 sec.Ir.funcs)
      [ 0; 1 ]
  in
  match sizes with
  | [ s0; s1 ] -> Alcotest.(check bool) "level1 not larger" true (s1 <= s0)
  | _ -> assert false

(* --- differential testing --- *)

let value_of_w2 = function
  | W2.Interp.Vint n -> Some (Ir_interp.Vi n)
  | W2.Interp.Vfloat f -> Some (Ir_interp.Vf f)
  | W2.Interp.Vbool b -> Some (Ir_interp.Vi (if b then 1 else 0))
  | W2.Interp.Varray _ -> None

let values_close a b =
  match (a, b) with
  | Ir_interp.Vi x, Ir_interp.Vi y -> x = y
  | Ir_interp.Vf x, Ir_interp.Vf y ->
    (Float.is_nan x && Float.is_nan y)
    || abs_float (x -. y) <= 1e-9 *. (1.0 +. abs_float x +. abs_float y)
  | _ -> false

type outcome =
  | Value of Ir_interp.value option * Ir_interp.value list (* result, sent *)
  | Failed
  | Fuel

let run_source m ~args_int ~args_float ~inputs =
  let sec = List.hd m.W2.Ast.sections in
  let channels, outputs =
    W2.Interp.queue_channels
      ~input_x:(List.map (fun f -> W2.Interp.Vfloat f) inputs)
      ~input_y:[]
  in
  match
    W2.Interp.run_function ~fuel:400_000 ~channels sec ~name:"prop_f"
      ~args:[ W2.Interp.Vint args_int; W2.Interp.Vfloat args_float ]
  with
  | exception W2.Interp.Out_of_fuel -> Fuel
  | exception W2.Interp.Runtime_error _ -> Failed
  | result ->
    let out_x, out_y = outputs () in
    let sent =
      List.filter_map value_of_w2 (out_x @ out_y)
    in
    Value (Option.bind result value_of_w2, sent)

let run_ir sec ~level ~args_int ~args_float ~inputs =
  let sec =
    {
      sec with
      Ir.funcs =
        List.map
          (fun f ->
            (* Deep-copy blocks so each level optimizes fresh IR. *)
            let copy =
              {
                f with
                Ir.blocks = Array.map (fun b -> { b with Ir.instrs = b.Ir.instrs }) f.Ir.blocks;
                reg_ty = Array.copy f.Ir.reg_ty;
              }
            in
            ignore (Opt.optimize ~level copy);
            copy)
          sec.Ir.funcs;
    }
  in
  let sent = ref [] in
  let queue = Queue.of_seq (List.to_seq inputs) in
  let channels =
    {
      Ir_interp.recv =
        (fun _ ->
          if Queue.is_empty queue then raise (Ir_interp.Error "empty channel")
          else Ir_interp.Vf (Queue.pop queue));
      send = (fun _ v -> sent := v :: !sent);
    }
  in
  match
    Ir_interp.run_function ~fuel:2_000_000 ~channels sec ~name:"prop_f"
      ~args:[ Ir_interp.Vi args_int; Ir_interp.Vf args_float ]
  with
  | exception Ir_interp.Out_of_fuel -> Fuel
  | exception Ir_interp.Error _ -> Failed
  | result -> Value (result, List.rev !sent)

let outcomes_agree a b =
  match (a, b) with
  | Fuel, _ | _, Fuel -> true (* fuel budgets differ between interpreters *)
  | Failed, Failed -> true
  | Value (ra, sa), Value (rb, sb) ->
    let results_ok =
      match (ra, rb) with
      | None, None -> true
      | Some x, Some y -> values_close x y
      | _ -> false
    in
    results_ok
    && List.length sa = List.length sb
    && List.for_all2 values_close sa sb
  | Value _, Failed | Failed, Value _ -> false

let differential_prop ~level ~allow_channels =
  QCheck.Test.make
    ~name:
      (Printf.sprintf "opt level %d preserves semantics%s" level
         (if allow_channels then " (with channels)" else ""))
    ~count:250
    QCheck.(triple small_nat small_nat (int_range 0 100))
    (fun (seed, size, input) ->
      let f = W2.Gen.random_function ~allow_channels ~seed ~size () in
      let m = W2.Gen.module_of_function f in
      (match W2.Semcheck.check_module m with
      | [] -> ()
      | e :: _ -> QCheck.Test.fail_reportf "gen produced unchecked code: %s"
                    (W2.Semcheck.error_to_string e));
      let sec = List.hd (Lower.lower_module m) in
      let args_int = input mod 23 in
      let args_float = 0.5 +. (0.25 *. float_of_int (input mod 7)) in
      let inputs = List.init 64 (fun i -> 0.125 *. float_of_int i) in
      let reference = run_source m ~args_int ~args_float ~inputs in
      let compiled = run_ir sec ~level ~args_int ~args_float ~inputs in
      if outcomes_agree reference compiled then true
      else
        QCheck.Test.fail_reportf
          "disagreement at level %d (seed=%d size=%d input=%d)" level seed size
          input)

let test_paper_benchmarks_compile_identically () =
  (* Each of the five paper functions compiles and produces the same
     value at every optimization level. *)
  List.iter
    (fun size ->
      let f = W2.Gen.sized_function ~name:"bench" size in
      let m = W2.Gen.module_of_function f in
      let reference =
        W2.Interp.run_function ~fuel:5_000_000 (List.hd m.W2.Ast.sections)
          ~name:"bench"
          ~args:[ W2.Interp.Vint 11; W2.Interp.Vint 2 ]
      in
      let expected = Option.bind reference value_of_w2 |> Option.get in
      List.iter
        (fun level ->
          let sec = List.hd (Lower.lower_module m) in
          List.iter (fun f -> ignore (Opt.optimize ~level f)) sec.Ir.funcs;
          match
            Ir_interp.run_function ~fuel:10_000_000 sec ~name:"bench"
              ~args:[ Ir_interp.Vi 11; Ir_interp.Vi 2 ]
          with
          | Some v when values_close v expected -> ()
          | Some v ->
            Alcotest.failf "%s level %d: %s <> %s" (W2.Gen.size_name size) level
              (Ir_interp.value_to_string v)
              (Ir_interp.value_to_string expected)
          | None -> Alcotest.failf "%s level %d returned nothing" (W2.Gen.size_name size) level)
        [ 0; 1; 2; 3 ])
    W2.Gen.all_sizes

let suites =
  [
    ( "ir.lower",
      [
        Alcotest.test_case "shape" `Quick test_lower_shape;
        Alcotest.test_case "executes" `Quick test_lower_runs;
        Alcotest.test_case "checked lowers" `Quick test_lower_rejects_nothing_checked;
      ] );
    ( "ir.cfg",
      [
        Alcotest.test_case "unreachable removal" `Quick test_unreachable_removal;
        Alcotest.test_case "rpo entry" `Quick test_rpo_starts_at_entry;
        Alcotest.test_case "preds/succs duality" `Quick test_preds_match_succs;
      ] );
    ("ir.dom", [ Alcotest.test_case "dominators" `Quick test_dominators ]);
    ( "ir.loops",
      [
        Alcotest.test_case "loop detection" `Quick test_loop_found;
        Alcotest.test_case "nesting depth" `Quick test_nesting_depth;
      ] );
    ( "ir.passes",
      [
        Alcotest.test_case "constfold" `Quick test_constfold_folds;
        Alcotest.test_case "dce" `Quick test_dce_removes_dead;
        Alcotest.test_case "lvn cse" `Quick test_lvn_cse;
        Alcotest.test_case "licm" `Quick test_licm_hoists;
        Alcotest.test_case "strength reduction" `Quick test_strength_reduces;
        Alcotest.test_case "unroll" `Quick test_unroll_flattens;
        Alcotest.test_case "sizes shrink" `Quick test_opt_levels_monotone_size;
        Alcotest.test_case "paper benchmarks" `Quick
          test_paper_benchmarks_compile_identically;
      ] );
    ( "ir.differential",
      [
        QCheck_alcotest.to_alcotest (differential_prop ~level:0 ~allow_channels:false);
        QCheck_alcotest.to_alcotest (differential_prop ~level:1 ~allow_channels:false);
        QCheck_alcotest.to_alcotest (differential_prop ~level:2 ~allow_channels:false);
        QCheck_alcotest.to_alcotest (differential_prop ~level:3 ~allow_channels:false);
        QCheck_alcotest.to_alcotest (differential_prop ~level:2 ~allow_channels:true);
        QCheck_alcotest.to_alcotest (differential_prop ~level:3 ~allow_channels:true);
      ] );
  ]

(* --- global CSE --- *)

let test_gcse_across_blocks () =
  (* The same pure expression recomputed in both branch arms (with a
     store in each arm so if-conversion does not fuse them first). *)
  let src =
    {|
module m
  section s cells 1
  function f(x: int, b: int) : int
    var a : array[8] of int;
    var r : int;
  begin
    r := x * 7 + 1;
    if b > 0 then
      a[0] := x * 7 + 1;
    else
      a[1] := x * 7 + 1;
    end;
    return r + a[0] + a[1];
  end
  end
end
|}
  in
  let f = List.hd (lower_first src).Ir.funcs in
  ignore (Cfg.simplify f);
  ignore (Lvn.run f);
  let eliminated = Gcse.run f in
  Alcotest.(check bool) "eliminated cross-block duplicates" true (eliminated >= 2);
  match
    Ir_interp.run_function
      { Ir.sec_name = "s"; cells = 1; funcs = [ f ] }
      ~name:"f"
      ~args:[ Ir_interp.Vi 3; Ir_interp.Vi 1 ]
  with
  | Some (Ir_interp.Vi v) -> Alcotest.(check int) "value preserved" 44 v
  | _ -> Alcotest.fail "run failed"

let test_gcse_respects_redefinition () =
  (* The expression's operand is redefined between the two sites: the
     second computation must stay. *)
  let src =
    {|
module m
  section s cells 1
  function g(x: int) : int
    var y : int;
    var r : int;
  begin
    y := x;
    r := y * 3;
    y := y + 1;
    return r + y * 3;
  end
  end
end
|}
  in
  let f = List.hd (lower_first src).Ir.funcs in
  ignore (Cfg.simplify f);
  Alcotest.(check int) "multi-def operand untouched" 0 (Gcse.run f);
  match
    Ir_interp.run_function
      { Ir.sec_name = "s"; cells = 1; funcs = [ f ] }
      ~name:"g" ~args:[ Ir_interp.Vi 5 ]
  with
  | Some (Ir_interp.Vi v) -> Alcotest.(check int) "value" 33 v
  | _ -> Alcotest.fail "run failed"

let gcse_suites =
  [
    ( "ir.gcse",
      [
        Alcotest.test_case "across blocks" `Quick test_gcse_across_blocks;
        Alcotest.test_case "respects redefinition" `Quick test_gcse_respects_redefinition;
      ] );
  ]

let suites = suites @ gcse_suites

(* --- bitset liveness, DCE and LVN against the pre-rewrite oracles --- *)

module O = Phase2_oracle

let copy_func (f : Ir.func) =
  {
    f with
    Ir.blocks = Array.map (fun (b : Ir.block) -> { b with Ir.instrs = b.Ir.instrs }) f.Ir.blocks;
    reg_ty = Array.copy f.Ir.reg_ty;
  }

(* The level-3 pipeline, each cleanup fixpoint cut to two rounds: a
   random prefix of it gives the passes under test every shape of IR
   they meet in a real compile. *)
let pipeline =
  let cleanup = [ Constfold.run; Lvn.run; Gcp.run; Gcse.run; Dce.run; Cfg.simplify ] in
  let cleanups = cleanup @ cleanup in
  cleanups @ [ Ifconv.run ] @ cleanups @ [ Licm.run; Strength.run ] @ cleanups
  @ [ Unroll.run ] @ cleanups

let arb_prefix_func =
  QCheck.make
    ~print:(fun (seed, size, k) -> Printf.sprintf "seed=%d size=%d prefix=%d" seed size k)
    QCheck.Gen.(triple small_nat (int_range 0 40) (int_range 0 (List.length pipeline)))

let func_after_prefix (seed, size, k) =
  let m = W2.Gen.module_of_function (W2.Gen.random_function ~allow_channels:true ~seed ~size ()) in
  let f = List.hd (List.hd (Lower.lower_module m)).Ir.funcs in
  List.iteri (fun i pass -> if i < k then ignore (pass f)) pipeline;
  f

let elements s =
  let acc = ref [] in
  Liveness.iter (fun r -> acc := r :: !acc) s;
  List.rev !acc

let prop_liveness_matches_sets =
  QCheck.Test.make ~name:"bitset liveness = Set liveness, per block and per instruction"
    ~count:300 arb_prefix_func (fun input ->
      let f = func_after_prefix input in
      let t = Liveness.compute f and o = O.Liveness.compute f in
      List.for_all
        (fun i ->
          let after = ref [] in
          Liveness.sweep t f i (fun _ live -> after := elements live :: !after);
          elements t.Liveness.live_in.(i) = O.Liveness.Rset.elements o.O.Liveness.live_in.(i)
          && elements t.Liveness.live_out.(i)
             = O.Liveness.Rset.elements o.O.Liveness.live_out.(i)
          && !after = Array.to_list (Array.map O.Liveness.Rset.elements (O.Liveness.per_instr o f i)))
        (List.init (Array.length f.Ir.blocks) Fun.id))

(* [pass] and [oracle] on copies of one function: the same count and
   byte-identical IR. *)
let same_as_oracle pass oracle input =
  let f = func_after_prefix input in
  let a = copy_func f and b = copy_func f in
  let na = pass a and nb = oracle b in
  na = nb && Ir.func_to_string a = Ir.func_to_string b

let prop_dce_matches_oracle =
  QCheck.Test.make ~name:"bitset DCE = Set DCE, removals and IR" ~count:300 arb_prefix_func
    (same_as_oracle Dce.run O.Dce.run)

let prop_lvn_matches_oracle =
  QCheck.Test.make ~name:"array-backed LVN = per-block tables, rewrites and IR" ~count:300
    arb_prefix_func (same_as_oracle Lvn.run O.Lvn.run)

(* Once r0 is overwritten, the next register to take r0's old value
   becomes its representative: r3 := r1 and the return read r2.  Lowered code
   rarely builds this chain, so the property above seldom meets it. *)
let test_lvn_stale_representative () =
  let f =
    {
      Ir.name = "f";
      params = [ ("x", Ir.Int, 0) ];
      arrays = [];
      blocks =
        [|
          {
            Ir.instrs =
              Ir.[ Mov (1, Reg 0); Mov (0, Imm_int 1); Mov (2, Reg 1); Mov (3, Reg 1) ];
            term = Ir.Ret (Some (Ir.Reg 3));
          };
        |];
      reg_ty = Array.make 4 Ir.Int;
      ret_ty = Some Ir.Int;
    }
  in
  let a = copy_func f and b = copy_func f in
  Alcotest.(check int) "two rewrites" 2 (Lvn.run a);
  Alcotest.(check int) "oracle agrees" 2 (O.Lvn.run b);
  Alcotest.(check string) "same IR" (Ir.func_to_string b) (Ir.func_to_string a);
  Alcotest.(check bool) "r3 := r2" true
    (List.mem (Ir.Mov (3, Ir.Reg 2)) a.Ir.blocks.(0).Ir.instrs)

(* A pass that reports no change changes nothing: the precondition of
   the optimizer's change stamp, which skips a cleanup pass that found
   nothing to do at the current stamp.  Each pass of the level-3
   pipeline runs in turn on a lowered random function or skeleton, up
   to a random prefix.  A cleanup pass returning 0 must leave every
   block, instruction list and terminator physically as it was (it
   rebuilds nothing); a loop pass returning 0 must leave the IR
   printing the same. *)
let named_pipeline =
  let cleanup =
    [
      ("constfold", Constfold.run);
      ("lvn", Lvn.run);
      ("gcp", Gcp.run);
      ("gcse", Gcse.run);
      ("dce", Dce.run);
      ("cfg-simplify", Cfg.simplify);
    ]
    |> List.map (fun (name, run) -> (name, run, `Cleanup))
  in
  let cleanups = cleanup @ cleanup in
  let loop name run = (name, run, `Loop) in
  cleanups @ [ loop "ifconv" Ifconv.run ] @ cleanups
  @ [ loop "licm" Licm.run; loop "strength" Strength.run ]
  @ cleanups @ [ loop "unroll" Unroll.run ] @ cleanups

let arb_quiet_input =
  QCheck.make
    ~print:(fun (skeleton, seed, size, k) ->
      Printf.sprintf "%s seed=%d size=%d prefix=%d"
        (if skeleton then "skeleton" else "random") seed size k)
    QCheck.Gen.(
      quad bool small_nat (int_range 4 60) (int_range 1 (List.length named_pipeline)))

let prop_quiet_pass_changes_nothing =
  QCheck.Test.make ~name:"a pass that reports no change changes nothing" ~count:200
    arb_quiet_input (fun (skeleton, seed, size, k) ->
      let func =
        if skeleton then
          W2.Gen.function_of_lines ~name:(Printf.sprintf "s%d_m0_f0" seed) size
        else W2.Gen.random_function ~allow_channels:true ~seed ~size ()
      in
      let f = List.hd (List.hd (Lower.lower_module (W2.Gen.module_of_function func))).Ir.funcs in
      List.iteri
        (fun i (name, run, kind) ->
          if i < k then begin
            let blocks = Array.copy f.Ir.blocks in
            let parts = Array.map (fun (b : Ir.block) -> (b.Ir.instrs, b.Ir.term)) blocks in
            let text = Ir.func_to_string f in
            if run f = 0 then
              let same =
                match kind with
                | `Cleanup ->
                  Array.length f.Ir.blocks = Array.length blocks
                  && Array.for_all2 ( == ) f.Ir.blocks blocks
                  && Array.for_all2
                       (fun (b : Ir.block) (instrs, term) ->
                         b.Ir.instrs == instrs && b.Ir.term == term)
                       f.Ir.blocks parts
                | `Loop -> Ir.func_to_string f = text
              in
              if not same then
                QCheck.Test.fail_reportf "pass %d (%s) reported no change but changed the IR"
                  i name
          end)
        named_pipeline;
      true)

let suites =
  suites
  @ [
      ( "ir.oracles",
        Alcotest.test_case "lvn: stale representative" `Quick test_lvn_stale_representative
        :: List.map QCheck_alcotest.to_alcotest
             [
               prop_liveness_matches_sets;
               prop_dce_matches_oracle;
               prop_lvn_matches_oracle;
               prop_quiet_pass_changes_nothing;
             ] );
    ]
