(* IR verifier tests: the shipped example programs must verify clean
   through every optimization level with [~verify_each:true], and
   hand-built invariant violations must each be caught and attributed
   to the pass after which they were detected. *)

open Midend

let load_module path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let src = really_input_string ic n in
  close_in ic;
  let m = W2.Parser.module_of_string src in
  W2.Semcheck.check_module_exn m;
  m

let example_files () =
  (* [dune runtest] runs in _build/default/test (examples are a sibling
     via the dune deps); [dune exec] runs from the project root. *)
  let dir =
    List.find Sys.file_exists
      [ Filename.concat ".." "examples"; "examples" ]
  in
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".w2")
  |> List.sort compare
  |> List.map (Filename.concat dir)

(* --- clean programs stay clean at every level --- *)

let test_examples_verify () =
  let files = example_files () in
  Alcotest.(check bool) "found example programs" true (List.length files >= 3);
  List.iter
    (fun path ->
      let m = load_module path in
      List.iter
        (fun level ->
          (* Fresh lowering per level: optimization is in-place. *)
          List.iter
            (fun sec ->
              ignore (Opt.optimize_section ~level ~verify_each:true sec);
              match Irverify.check_section sec with
              | [] -> ()
              | vs ->
                Alcotest.failf "%s at -O%d: %s" path level
                  (Irverify.violation_to_string (List.hd vs)))
            (Lower.lower_module m))
        [ 0; 1; 2; 3 ])
    files

let test_generated_benchmarks_verify () =
  List.iter
    (fun size ->
      let m = W2.Gen.module_of_function (W2.Gen.sized_function ~name:"b" size) in
      W2.Semcheck.check_module_exn m;
      List.iter
        (fun sec ->
          ignore (Opt.optimize_section ~level:3 ~verify_each:true sec);
          Alcotest.(check int) "no violations" 0
            (List.length (Irverify.check_section sec)))
        (Lower.lower_module m))
    [ W2.Gen.Small; W2.Gen.Medium; W2.Gen.Large ]

(* --- seeded violations --- *)

let block instrs term = { Ir.instrs; term }

let mk_func ?(name = "broken") ?(params = []) ?(arrays = []) ?ret_ty ~reg_ty
    blocks =
  {
    Ir.name;
    params;
    arrays;
    blocks = Array.of_list blocks;
    reg_ty = Array.of_list reg_ty;
    ret_ty;
  }

(* Running the broken function through the instrumented pipeline must
   raise, and the violation must name the pass after which the check
   failed — for seeded input IR, the initial "lower" checkpoint. *)
let expect_caught ~substring f =
  match Opt.optimize ~level:2 ~verify_each:true f with
  | _ -> Alcotest.failf "expected Irverify.Invalid (%s)" substring
  | exception Irverify.Invalid (v :: _) ->
    Alcotest.(check (option string)) "attributed to a pass" (Some "lower")
      v.Irverify.vi_pass;
    let msg = Irverify.violation_to_string v in
    let contains s sub =
      let n = String.length sub in
      let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
      go 0
    in
    Alcotest.(check bool)
      (Printf.sprintf "%S mentions %S" msg substring)
      true (contains msg substring)
  | exception Irverify.Invalid [] -> Alcotest.fail "empty violation list"

let test_branch_target_out_of_range () =
  expect_caught ~substring:"out of range"
    (mk_func ~reg_ty:[]
       [ block [] (Ir.Branch (Ir.Imm_int 1, 0, 7)); ])

let test_uninitialized_use () =
  expect_caught ~substring:"possibly-uninitialized"
    (mk_func ~reg_ty:[ Ir.Int; Ir.Int ]
       [ block [ Ir.Mov (1, Ir.Reg 0) ] (Ir.Ret None) ])

let test_type_mismatched_operand () =
  (* A float immediate fed to an integer add. *)
  expect_caught ~substring:"class float"
    (mk_func ~reg_ty:[ Ir.Int ]
       [ block [ Ir.Bin (Ir.Iadd, 0, Ir.Imm_float 1.0, Ir.Imm_int 2) ] (Ir.Ret None) ])

let test_undeclared_array () =
  expect_caught ~substring:"undeclared array"
    (mk_func ~reg_ty:[ Ir.Int ]
       [ block [ Ir.Load (0, "a", Ir.Imm_int 0) ] (Ir.Ret None) ])

let test_register_out_of_range () =
  expect_caught ~substring:"outside reg_ty"
    (mk_func ~reg_ty:[ Ir.Int ]
       [ block [ Ir.Mov (5, Ir.Imm_int 0) ] (Ir.Ret None) ])

let test_constant_index_out_of_bounds () =
  expect_caught ~substring:"out of bounds"
    (mk_func ~reg_ty:[ Ir.Int ] ~arrays:[ ("a", 4, Ir.Int) ]
       [ block [ Ir.Load (0, "a", Ir.Imm_int 9) ] (Ir.Ret None) ])

let test_empty_block_array () =
  match Irverify.check_func (mk_func ~reg_ty:[] []) with
  | [ v ] ->
    Alcotest.(check int) "function-level" (-1) v.Irverify.vi_block
  | vs -> Alcotest.failf "expected one violation, got %d" (List.length vs)

(* The if-conversion identity arm [d := sel c ? v : d] merely keeps the
   old value; it must not count as a use of [d]. *)
let test_sel_identity_arm_not_a_use () =
  let f =
    mk_func ~reg_ty:[ Ir.Int; Ir.Int ]
      [
        block
          [ Ir.Mov (1, Ir.Imm_int 1); Ir.Sel (0, Ir.Reg 1, Ir.Imm_int 5, Ir.Reg 0) ]
          (Ir.Ret None);
      ]
  in
  Alcotest.(check int) "no violations" 0 (List.length (Irverify.check_func f))

(* --- cross-function call agreement --- *)

let section_of funcs = { Ir.sec_name = "s"; cells = 1; funcs }

let callee =
  mk_func ~name:"callee"
    ~params:[ ("x", Ir.Int, 0) ]
    ~ret_ty:Ir.Int ~reg_ty:[ Ir.Int ]
    [ block [] (Ir.Ret (Some (Ir.Reg 0))) ]

let test_call_unresolved () =
  let caller =
    mk_func ~name:"caller" ~reg_ty:[ Ir.Int ]
      [ block [ Ir.Call (Some 0, "nowhere", []) ] (Ir.Ret None) ]
  in
  match Irverify.check_calls (section_of [ caller; callee ]) with
  | [ v ] ->
    Alcotest.(check bool) "names the callee" true
      (String.length v.Irverify.vi_msg > 0)
  | vs -> Alcotest.failf "expected one violation, got %d" (List.length vs)

let test_call_arity_mismatch () =
  let caller =
    mk_func ~name:"caller" ~reg_ty:[ Ir.Int ]
      [
        block
          [ Ir.Call (Some 0, "callee", [ Ir.Imm_int 1; Ir.Imm_int 2 ]) ]
          (Ir.Ret None);
      ]
  in
  Alcotest.(check int) "one violation" 1
    (List.length (Irverify.check_calls (section_of [ caller; callee ])))

let test_call_clean () =
  let caller =
    mk_func ~name:"caller" ~reg_ty:[ Ir.Int ]
      [ block [ Ir.Call (Some 0, "callee", [ Ir.Imm_int 1 ]) ] (Ir.Ret None) ]
  in
  Alcotest.(check int) "no violations" 0
    (List.length (Irverify.check_calls (section_of [ caller; callee ])))

(* --- the verifier against the eager-rendering one, on optimizer output --- *)

module O = Phase2_oracle.Irverify

type kind =
  | Reg_range
  | Class
  | Uninit
  | Uninit_sel
  | Target
  | Undeclared
  | Index
  | Arity
  | Arg_class
  | Result_class
  | Unresolved

let kinds =
  [
    (Reg_range, "register out of range");
    (Class, "class mismatch");
    (Uninit, "uninitialized use");
    (Uninit_sel, "uninitialized use through a sel identity arm");
    (Target, "bad branch target");
    (Undeclared, "undeclared array");
    (Index, "constant index out of bounds");
    (Arity, "call arity");
    (Arg_class, "call argument class");
    (Result_class, "call result class");
    (Unresolved, "call to no function of the section");
  ]

(* One injected fault: its kind, where it goes (block and position,
   reduced modulo the function's shape), a free parameter, and the pass
   name the verifier is called with. *)
type fault = { kind : kind; at_block : int; at : int; k : int; pass : string option }

let arb_fault =
  let open QCheck.Gen in
  let gen =
    map
      (fun ((kind, at_block, at), (k, pass)) -> { kind; at_block; at; k; pass })
      (pair
         (triple (map fst (oneofl kinds)) small_nat small_nat)
         (pair (int_bound 5) (opt (oneofl [ "lvn"; "licm" ]))))
  in
  QCheck.make gen ~print:(fun f ->
      Printf.sprintf "%s at B%d/%d, k=%d, pass=%s" (List.assoc f.kind kinds) f.at_block f.at
        f.k (Option.value ~default:"-" f.pass))

(* [f] with the fault injected.  Three fresh registers are appended: an
   int and a float one, and an int one no instruction defines. *)
let inject (flt : fault) (f : Ir.func) : Ir.func =
  let n = Ir.num_regs f in
  let ri = n and rf = n + 1 and u = n + 2 in
  let blocks = Array.copy f.Ir.blocks in
  let nb = Array.length blocks in
  let insert bi instrs =
    let b = blocks.(bi) in
    let pos = flt.at mod (List.length b.Ir.instrs + 1) in
    let before = List.filteri (fun i _ -> i < pos) b.Ir.instrs in
    let after = List.filteri (fun i _ -> i >= pos) b.Ir.instrs in
    blocks.(bi) <- { b with Ir.instrs = before @ instrs @ after }
  in
  let set_term bi term = blocks.(bi) <- { (blocks.(bi)) with Ir.term } in
  let bi = flt.at_block mod nb in
  let odd = flt.k mod 2 = 1 in
  (match flt.kind with
  | Reg_range -> (
    (* In each place a message names: an operand, an index, a
       condition, a terminator, a destination. *)
    let bad = Ir.Reg (u + 1 + flt.k) in
    match flt.k with
    | 0 -> insert bi [ Ir.Bin (Ir.Iadd, ri, bad, Ir.Imm_int 1) ]
    | 1 -> insert bi [ Ir.Load (ri, "zz", bad) ]
    | 2 -> insert bi [ Ir.Sel (ri, bad, Ir.Imm_int 1, Ir.Imm_int 2) ]
    | 3 -> set_term bi (Ir.Branch (bad, 0, 0))
    | 4 -> set_term bi (Ir.Ret (Some bad))
    | _ -> insert bi [ Ir.Mov (u + 1 + flt.k, Ir.Imm_int 0) ])
  | Class -> (
    let fl = Ir.Imm_float 1.5 in
    match flt.k with
    | 0 -> insert bi [ Ir.Mov (ri, fl) ]
    | 1 -> insert bi [ Ir.Bin (Ir.Fadd, ri, Ir.Reg rf, Ir.Reg rf) ]
    | 2 -> insert bi [ Ir.Load (ri, "zz", fl) ]
    | 3 -> insert bi [ Ir.Sel (ri, fl, Ir.Imm_int 1, Ir.Imm_int 2) ]
    | 4 -> set_term bi (Ir.Branch (fl, 0, 0))
    | _ -> insert bi [ Ir.Load (rf, "zz", Ir.Imm_int 0) ])
  | Uninit -> insert Ir.entry_block [ Ir.Bin (Ir.Iadd, ri, Ir.Reg u, Ir.Imm_int 1) ]
  | Uninit_sel ->
    (* The use sits in the entry block or, when it has one, in its
       first successor, so the identity arm must not initialize [u]
       along the edge either. *)
    let user =
      match Ir.successors blocks.(Ir.entry_block).Ir.term with
      | s :: _ when odd -> s
      | _ -> Ir.entry_block
    in
    insert user [ Ir.Mov (ri, Ir.Reg u) ];
    insert Ir.entry_block [ Ir.Sel (u, Ir.Imm_int 1, Ir.Imm_int 5, Ir.Reg u) ]
  | Target ->
    set_term bi (if odd then Ir.Branch (Ir.Imm_int 1, 0, -flt.k) else Ir.Jump (nb + flt.k))
  | Undeclared ->
    insert bi
      [
        (if odd then Ir.Store ("nowhere", Ir.Imm_int 0, Ir.Reg ri)
         else Ir.Load (ri, "nowhere", Ir.Imm_int 0));
      ]
  | Index ->
    insert bi [ Ir.Load (ri, "zz", Ir.Imm_int (if odd then -flt.k else 4 + flt.k)) ]
  | Arity -> insert bi [ Ir.Call (Some ri, "callee", [ Ir.Imm_int 1; Ir.Reg ri ]) ]
  | Arg_class ->
    insert bi [ Ir.Call (Some ri, "callee", [ (if odd then Ir.Reg rf else Ir.Imm_float 1.0) ]) ]
  | Result_class -> insert bi [ Ir.Call (Some rf, "callee", [ Ir.Imm_int 1 ]) ]
  | Unresolved -> insert bi [ Ir.Call (None, "nowhere", []) ]);
  {
    f with
    Ir.blocks;
    reg_ty = Array.append f.Ir.reg_ty [| Ir.Int; Ir.Float; Ir.Int |];
    arrays = f.Ir.arrays @ [ ("zz", 4, Ir.Int) ];
  }

let prop_verifier_matches_oracle =
  QCheck.Test.make ~name:"verifier = eager-rendering verifier, clean and with one fault" ~count:300
    (QCheck.pair Test_ir.arb_prefix_func arb_fault) (fun (input, flt) ->
      let f = Test_ir.func_after_prefix input in
      let run check_func check_calls g =
        (check_func ?pass:flt.pass g, check_calls (section_of [ g; callee ]))
      in
      let lib = run Irverify.check_func Irverify.check_calls
      and oracle = run O.check_func O.check_calls in
      let g = inject flt f in
      lib f = ([], []) && oracle f = ([], []) && lib g <> ([], []) && lib g = oracle g)

let suites =
  [
    ( "irverify",
      [
        Alcotest.test_case "examples verify at O0-O3" `Quick test_examples_verify;
        Alcotest.test_case "generated benchmarks verify" `Quick
          test_generated_benchmarks_verify;
        Alcotest.test_case "branch target out of range" `Quick
          test_branch_target_out_of_range;
        Alcotest.test_case "uninitialized use" `Quick test_uninitialized_use;
        Alcotest.test_case "type-mismatched operand" `Quick
          test_type_mismatched_operand;
        Alcotest.test_case "undeclared array" `Quick test_undeclared_array;
        Alcotest.test_case "register out of range" `Quick
          test_register_out_of_range;
        Alcotest.test_case "constant index bounds" `Quick
          test_constant_index_out_of_bounds;
        Alcotest.test_case "empty block array" `Quick test_empty_block_array;
        Alcotest.test_case "sel identity arm" `Quick
          test_sel_identity_arm_not_a_use;
        Alcotest.test_case "call unresolved" `Quick test_call_unresolved;
        Alcotest.test_case "call arity" `Quick test_call_arity_mismatch;
        Alcotest.test_case "call clean" `Quick test_call_clean;
        QCheck_alcotest.to_alcotest prop_verifier_matches_oracle;
      ] );
  ]
