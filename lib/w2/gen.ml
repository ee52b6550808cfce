(* Synthetic W2 programs.

   Section 4.1 of the paper derives its test programs from a Monte-Carlo
   style simulation: five functions of 4, 35, 100, 280 and 360 lines of
   code, each "a loop nest (with deeply nested loop bodies in the case
   of the larger programs)".  [benchmark_function] reconstructs that
   series: a pseudo-random float kernel inside a loop nest whose depth
   grows with the size, padded to hit the requested line count exactly
   (as counted by [Pretty.func_loc]).

   [random_function] produces arbitrary—but always well-typed and
   terminating—functions for property-based tests. *)

let dummy = Loc.dummy

(* --- tiny AST-building DSL --- *)

let ex e = { Ast.e; eloc = dummy }
let st s = { Ast.s; sloc = dummy }
let int n = ex (Ast.Int_lit n)
let flt f = ex (Ast.Float_lit f)
let var name = ex (Ast.Var name)
let idx name i = ex (Ast.Index (name, i))
let bin op a b = ex (Ast.Binary (op, a, b))
let call name args = ex (Ast.Call (name, args))
let assign name value = st (Ast.Assign (Ast.Lvar name, value))
let store name i value = st (Ast.Assign (Ast.Lindex (name, i), value))
let for_ v lo hi body = st (Ast.For (v, int lo, int hi, body))
let if_ cond t e = st (Ast.If (cond, t, e))
let return_ value = st (Ast.Return (Some value))

let decl name ty = { Ast.dname = name; dty = ty; dloc = dummy }
let param name ty = { Ast.pname = name; pty = ty; ploc = dummy }

(* --- deterministic statement stream --- *)

(* A tiny LCG drives the choice of kernel statements so that a given
   (name, size) pair always produces the same function. *)
type rng = { mutable state : int }

let rng_make seed = { state = (seed * 2654435761) land 0x3FFFFFFF }

let rng_next rng bound =
  rng.state <- ((rng.state * 1103515245) + 12345) land 0x3FFFFFFF;
  rng.state mod bound

(* One-line kernel statements over the float variables in scope.  Every
   template is non-expanding (coefficient sums stay below 1), so however
   many of them the padding emits, all values remain bounded and the
   interpreter result stays finite. *)
let kernel_stmt rng ~floats ~index_var =
  let pick xs = List.nth xs (rng_next rng (List.length xs)) in
  let f1 = pick floats and f2 = pick floats in
  let c = 0.0625 *. float_of_int (1 + rng_next rng 7) in
  let damped a b = bin Ast.Add (bin Ast.Mul a (flt 0.5)) (bin Ast.Mul b (flt c)) in
  match rng_next rng 6 with
  | 0 -> assign f1 (damped (var f1) (var f2))
  | 1 -> assign f1 (bin Ast.Mul (var f1) (flt 0.5))
  | 2 -> assign f1 (bin Ast.Sub (bin Ast.Mul (bin Ast.Add (var f1) (var f2)) (flt 0.5)) (flt c))
  | 3 -> assign f1 (call "max" [ bin Ast.Mul (var f1) (flt 0.5); bin Ast.Mul (var f2) (flt c) ])
  | 4 -> assign f1 (damped (var f1) (call "abs" [ var f2 ]))
  | 5 ->
    store "tbl" (bin Ast.Mod (var index_var) (int 16))
      (damped (idx "tbl" (bin Ast.Mod (var index_var) (int 16))) (var f1))
  | _ -> assert false

let floats_in_scope = [ "acc"; "x"; "y"; "t0"; "t1" ]

(* Purely scalar one-line statements; used where no table is in scope.
   Non-expanding, like [kernel_stmt]. *)
let scalar_kernel_stmt rng ~floats =
  let pick xs = List.nth xs (rng_next rng (List.length xs)) in
  let f1 = pick floats and f2 = pick floats in
  let c = 0.0625 *. float_of_int (1 + rng_next rng 7) in
  match rng_next rng 4 with
  | 0 -> assign f1 (bin Ast.Add (bin Ast.Mul (var f1) (flt 0.5)) (bin Ast.Mul (var f2) (flt c)))
  | 1 -> assign f1 (bin Ast.Mul (var f1) (flt 0.5))
  | 2 -> assign f1 (bin Ast.Sub (bin Ast.Mul (bin Ast.Add (var f1) (var f2)) (flt 0.5)) (flt c))
  | _ -> assign f1 (call "max" [ bin Ast.Mul (var f1) (flt 0.5); bin Ast.Mul (var f2) (flt c) ])

(* The Monte-Carlo step: advance the integer pseudo-random state [s] and
   derive a sample in [0, 1). *)
let monte_carlo_step =
  [
    assign "s" (bin Ast.Mod (bin Ast.Add (bin Ast.Mul (var "s") (int 1103)) (int 12345)) (int 65536));
    assign "x" (bin Ast.Div (call "float" [ bin Ast.Mod (var "s") (int 1024) ]) (flt 1024.0));
    assign "y" (bin Ast.Add (bin Ast.Mul (var "y") (flt 0.75)) (var "x"));
  ]

(* Build a loop nest of the given depth whose innermost body is
   [innermost]; every level contributes a little computation so that the
   flowgraph has realistic structure. *)
let rec loop_nest rng depth ~level innermost =
  if depth = 0 then innermost
  else
    let v = Printf.sprintf "i%d" level in
    let body =
      kernel_stmt rng ~floats:floats_in_scope ~index_var:v
      :: loop_nest rng (depth - 1) ~level:(level + 1) innermost
    in
    [ for_ v 0 3 body ]

let benchmark_locals =
  [
    decl "s" Ast.Tint;
    decl "i0" Ast.Tint;
    decl "i1" Ast.Tint;
    decl "i2" Ast.Tint;
    decl "i3" Ast.Tint;
    decl "acc" Ast.Tfloat;
    decl "x" Ast.Tfloat;
    decl "y" Ast.Tfloat;
    decl "t0" Ast.Tfloat;
    decl "t1" Ast.Tfloat;
    decl "tbl" (Ast.Tarray (16, Ast.Tfloat));
  ]

let benchmark_inits =
  [
    assign "s" (var "seed");
    assign "acc" (flt 0.0);
    assign "x" (flt 0.0);
    assign "y" (flt 1.0);
    assign "t0" (flt 0.25);
    assign "t1" (flt 0.5);
  ]

(* A function of exactly [lines] lines (as counted by [Pretty.func_loc]);
   every caller asks for at least [min_benchmark_lines]. *)
let min_benchmark_lines = 33

let benchmark_function ~name ~lines =
  let rng = rng_make (Hashtbl.hash (name, lines)) in
  let depth = if lines < 60 then 1 else if lines < 150 then 2 else 3 in
  let make fill =
    let fillers =
      List.init fill (fun _ ->
          kernel_stmt rng ~floats:floats_in_scope ~index_var:"i0")
    in
    (* Innermost loop bodies are branchless (like real systolic kernels),
       which keeps them software-pipelinable; the conditional sits after
       the nest so every function still has interesting control flow. *)
    let inner =
      monte_carlo_step
      @ [ assign "acc" (bin Ast.Add (var "acc") (bin Ast.Mul (var "x") (flt 0.25))) ]
      @ fillers
    in
    let body =
      benchmark_inits
      @ loop_nest rng depth ~level:0 inner
      @ [
          if_
            (bin Ast.Lt (var "acc") (flt 8.0))
            [ assign "acc" (bin Ast.Add (var "acc") (var "y")) ]
            [ assign "acc" (bin Ast.Mul (var "acc") (flt 0.5)) ];
          return_ (bin Ast.Add (var "acc") (idx "tbl" (int 0)));
        ]
    in
    {
      Ast.fname = name;
      params = [ param "seed" Ast.Tint; param "n" Ast.Tint ];
      ret = Some Ast.Tfloat;
      locals = benchmark_locals;
      body;
      floc = dummy;
    }
  in
  (* The skeleton has a fixed line count; each filler statement adds one
     line, so one measurement gives the exact fill. *)
  let base = Pretty.func_loc (make 0) in
  let fill = lines - base in
  if fill < 0 then
    invalid_arg
      (Printf.sprintf
         "Gen.benchmark_function: %d lines requested but skeleton needs %d"
         lines base)
  else make fill

(* A function in the spirit of f_tiny, exactly 4 lines of code:
   header, begin, one statement, end. *)
let tiny_function ~name =
  {
    Ast.fname = name;
    params = [ param "seed" Ast.Tint; param "n" Ast.Tint ];
    ret = Some Ast.Tfloat;
    locals = [];
    body =
      [ return_ (bin Ast.Add (bin Ast.Mul (call "float" [ var "seed" ]) (flt 0.5)) (flt 1.0)) ];
    floc = dummy;
  }

(* The five paper sizes (section 4.1). *)
type size = Tiny | Small | Medium | Large | Huge

let all_sizes = [ Tiny; Small; Medium; Large; Huge ]

let size_lines = function
  | Tiny -> 4
  | Small -> 35
  | Medium -> 100
  | Large -> 280
  | Huge -> 360

let size_name = function
  | Tiny -> "f_tiny"
  | Small -> "f_small"
  | Medium -> "f_medium"
  | Large -> "f_large"
  | Huge -> "f_huge"

let sized_function ~name size =
  match size with
  | Tiny -> tiny_function ~name
  | Small | Medium | Large | Huge ->
    benchmark_function ~name ~lines:(size_lines size)

(* Function of an arbitrary line count (used by Figure 7's size sweep and
   by the user program).  Below the Monte-Carlo minimum we fall back on a
   literal small function padded with one-line statements. *)
let function_of_lines ~name lines =
  if lines >= min_benchmark_lines then benchmark_function ~name ~lines
  else if lines <= 5 then begin
    (* Pad the 4-line tiny skeleton with integer updates. *)
    let base = tiny_function ~name in
    let fill = max 0 (lines - 4) in
    let fillers = List.init fill (fun _ -> assign "n" (bin Ast.Add (var "n") (int 1))) in
    { base with Ast.body = fillers @ base.Ast.body }
  end
  else begin
    (* Six-line scalar skeleton padded with one-line kernel statements. *)
    let rng = rng_make (Hashtbl.hash (name, lines)) in
    let fill = lines - 6 in
    let fillers =
      List.init fill (fun _ -> scalar_kernel_stmt rng ~floats:[ "x" ])
    in
    {
      Ast.fname = name;
      params = [ param "seed" Ast.Tint; param "n" Ast.Tint ];
      ret = Some Ast.Tfloat;
      locals = [ decl "x" Ast.Tfloat ];
      body =
        (assign "x" (bin Ast.Mul (call "float" [ var "seed" ]) (flt 0.5)) :: fillers)
        @ [ return_ (bin Ast.Add (var "x") (flt 1.0)) ];
      floc = dummy;
    }
  end

(* S_n of the paper: one section with [count] copies of the same
   function. *)
let s_program ?(name = "S") ~size ~count () =
  let funcs =
    List.init count (fun i ->
        sized_function ~name:(Printf.sprintf "%s_%d" (size_name size) (i + 1)) size)
  in
  {
    Ast.mname = Printf.sprintf "%s%d_%s" name count (size_name size);
    sections = [ { Ast.sname = "sec1"; cells = 10; globals = []; funcs; secloc = dummy } ];
    imports = [];
    exports = [];
    mloc = dummy;
  }

(* The mechanical-engineering application of section 4.3: three sections
   of three functions each; per section one function of about 300 lines
   (19-22 sequential minutes) and two of 5-45 lines (2-6 minutes). *)
let user_program () =
  let section i =
    let big = function_of_lines ~name:(Printf.sprintf "solve_%d" i) 300 in
    let small1 = function_of_lines ~name:(Printf.sprintf "prep_%d" i) (30 + (5 * i)) in
    let small2 = function_of_lines ~name:(Printf.sprintf "post_%d" i) (45 - (7 * i)) in
    {
      Ast.sname = Printf.sprintf "stage%d" i;
      cells = 3;
      globals = [];
      funcs = [ big; small1; small2 ];
      secloc = dummy;
    }
  in
  {
    Ast.mname = "mech_eng_app";
    sections = [ section 1; section 2; section 3 ];
    imports = [];
    exports = [];
    mloc = dummy;
  }

(* --- random functions for property-based testing --- *)

(* Always well-typed, always terminating: loops are constant-bounded
   [for] loops, conditions compare float expressions, and there are no
   calls (call-graph properties are tested separately). *)
let random_function ?(allow_channels = false) ~seed ~size () =
  let rng = rng_make seed in
  let size = max 1 (size mod 40) in
  let ints = [ "n"; "k" ] in
  let floats = [ "a"; "b"; "c" ] in
  let rec random_fexpr depth =
    if depth = 0 then
      match rng_next rng 3 with
      | 0 -> flt (0.25 *. float_of_int (rng_next rng 32))
      | 1 -> var (List.nth floats (rng_next rng 3))
      | _ -> idx "arr" (bin Ast.Mod (var "n") (int 8))
    else
      match rng_next rng 6 with
      | 0 -> bin Ast.Add (random_fexpr (depth - 1)) (random_fexpr (depth - 1))
      | 1 -> bin Ast.Sub (random_fexpr (depth - 1)) (random_fexpr (depth - 1))
      | 2 -> bin Ast.Mul (random_fexpr (depth - 1)) (flt 0.5)
      | 3 -> call "abs" [ random_fexpr (depth - 1) ]
      | 4 -> call "max" [ random_fexpr (depth - 1); random_fexpr (depth - 1) ]
      | _ -> random_fexpr (depth - 1)
  in
  let random_iexpr () =
    match rng_next rng 3 with
    | 0 -> int (rng_next rng 16)
    | 1 -> var (List.nth ints (rng_next rng 2))
    | _ -> bin Ast.Add (var (List.nth ints (rng_next rng 2))) (int (rng_next rng 8))
  in
  let rec random_stmt depth =
    match rng_next rng (if depth = 0 then 4 else if allow_channels then 8 else 7) with
    | 0 -> assign (List.nth floats (rng_next rng 3)) (random_fexpr 2)
    | 1 -> assign (List.nth ints (rng_next rng 2)) (bin Ast.Mod (random_iexpr ()) (int 13))
    | 2 -> store "arr" (bin Ast.Mod (random_iexpr ()) (int 8)) (random_fexpr 1)
    | 3 -> assign "a" (call "sqrt" [ call "abs" [ random_fexpr 1 ] ])
    | 4 ->
      if_
        (bin Ast.Lt (random_fexpr 1) (random_fexpr 1))
        (random_stmts (depth - 1) (1 + rng_next rng 3))
        (if rng_next rng 2 = 0 then []
         else random_stmts (depth - 1) (1 + rng_next rng 2))
    | 5 ->
      for_
        (Printf.sprintf "l%d" depth)
        0
        (rng_next rng 5)
        (random_stmts (depth - 1) (1 + rng_next rng 3))
    | 6 ->
      st
        (Ast.While
           ( bin Ast.Gt (var "w") (int 0),
             random_stmts (depth - 1) (1 + rng_next rng 2)
             @ [ assign "w" (bin Ast.Sub (var "w") (int 1)) ] ))
    | _ ->
      (* Channel traffic: send a float, so array cells stay floats. *)
      st (Ast.Send (Ast.Chan_x, random_fexpr 1))
  and random_stmts depth count = List.init count (fun _ -> random_stmt depth)
  in
  let body = random_stmts 2 size in
  {
    Ast.fname = "prop_f";
    params = [ param "n" Ast.Tint; param "a" Ast.Tfloat ];
    ret = Some Ast.Tfloat;
    locals =
      [
        decl "k" Ast.Tint;
        decl "w" Ast.Tint;
        decl "b" Ast.Tfloat;
        decl "c" Ast.Tfloat;
        decl "l0" Ast.Tint;
        decl "l1" Ast.Tint;
        decl "l2" Ast.Tint;
        decl "arr" (Ast.Tarray (8, Ast.Tfloat));
      ];
    body = (assign "w" (bin Ast.Mod (var "n") (int 7))) :: body @ [ return_ (bin Ast.Add (var "a") (var "b")) ];
    floc = dummy;
  }

(* Wrap a lone function as a single-section module. *)
let module_of_function f =
  {
    Ast.mname = "m_" ^ f.Ast.fname;
    sections = [ { Ast.sname = "sec1"; cells = 1; globals = []; funcs = [ f ]; secloc = dummy } ];
    imports = [];
    exports = [];
    mloc = dummy;
  }

(* A program in the style that motivates procedure inlining (section
   5.1): a few driver functions, each calling several small helpers.
   Compiled as-is, the parallel grain is tiny; after [Inline.expand] the
   drivers absorb their helpers and the grain grows.  Each driver calls
   three helpers of eight lines. *)
let helpers_per = 3
let helper_lines = 8

let helper_program ?(drivers = 6) () =
  let helper_name d h = Printf.sprintf "help_%d_%d" d h
  in
  let driver d =
    let calls =
      List.init helpers_per (fun h ->
          assign "acc"
            (bin Ast.Add (var "acc")
               (bin Ast.Mul
                  (call (helper_name d h) [ bin Ast.Add (var "seed") (var "i"); var "i" ])
                  (flt 0.5))))
    in
    {
      Ast.fname = Printf.sprintf "driver_%d" d;
      params = [ param "seed" Ast.Tint; param "n" Ast.Tint ];
      ret = Some Ast.Tfloat;
      locals = [ decl "i" Ast.Tint; decl "acc" Ast.Tfloat ];
      body =
        [ assign "acc" (flt 0.0); for_ "i" 0 7 calls; return_ (var "acc") ];
      floc = dummy;
    }
  in
  let funcs =
    List.concat
      (List.init drivers (fun d ->
           driver d
           :: List.init helpers_per (fun h ->
                  function_of_lines ~name:(helper_name d h) helper_lines)))
  in
  {
    Ast.mname = "many_small_functions";
    sections = [ { Ast.sname = "sec1"; cells = 4; globals = []; funcs; secloc = dummy } ];
    imports = [];
    exports = [];
    mloc = dummy;
  }

(* --- programs exercising the abstract-interpretation refinement --- *)

(* A partitioned lattice relaxation: every worker writes its own
   contiguous slice of the shared lattice (literal loop bounds, so the
   region domain sees exact slices), and a collector sums the whole
   array after calling every worker.  Flow-insensitive analysis draws a
   global-conflict edge between every pair of workers; the region
   domain refutes all of them, leaving only the genuine worker ->
   collector dependences. *)
let partitioned_program ?(workers = 4) ?(seg = 4) () =
  let cells = workers * seg in
  let worker k =
    let lo = k * seg and hi = (k * seg) + seg - 1 in
    {
      Ast.fname = Printf.sprintf "worker_%d" k;
      params = [ param "seed" Ast.Tint; param "n" Ast.Tint ];
      ret = Some Ast.Tfloat;
      locals = [ decl "i" Ast.Tint; decl "x" Ast.Tfloat ];
      body =
        [
          assign "x" (bin Ast.Mul (call "float" [ var "seed" ]) (flt 0.0625));
          for_ "i" lo hi
            [
              store "lattice" (var "i")
                (bin Ast.Add
                   (bin Ast.Mul (var "x") (flt 0.5))
                   (bin Ast.Mul (call "float" [ var "i" ]) (flt 0.0625)));
            ];
          return_ (var "x");
        ];
      floc = dummy;
    }
  in
  let collect =
    let acc_calls =
      List.init workers (fun k ->
          assign "acc"
            (bin Ast.Add (var "acc")
               (call
                  (Printf.sprintf "worker_%d" k)
                  [ bin Ast.Add (var "seed") (int k); var "n" ])))
    in
    {
      Ast.fname = "collect";
      params = [ param "seed" Ast.Tint; param "n" Ast.Tint ];
      ret = Some Ast.Tfloat;
      locals = [ decl "i" Ast.Tint; decl "acc" Ast.Tfloat ];
      body =
        (assign "acc" (flt 0.0) :: acc_calls)
        @ [
            for_ "i" 0 (cells - 1)
              [
                assign "acc"
                  (bin Ast.Add
                     (bin Ast.Mul (var "acc") (flt 0.5))
                     (idx "lattice" (var "i")));
              ];
            return_ (var "acc");
          ];
      floc = dummy;
    }
  in
  {
    Ast.mname = "partitioned_lattice";
    sections =
      [
        {
          Ast.sname = "lattice_sec";
          cells = workers;
          globals = [ decl "lattice" (Ast.Tarray (cells, Ast.Tfloat)) ];
          funcs = List.init workers worker @ [ collect ];
          secloc = dummy;
        };
      ];
    imports = [];
    exports = [];
    mloc = dummy;
  }

(* A histogram with a shared pure helper: every counter owns exactly
   one literal-indexed bin of the shared [hist] array, and all of them
   call the same smoothing helper.  The helper edges (inline/signature)
   are genuine and survive; the counter-counter global-conflict edges
   are refuted element-wise, and the helper itself is judged pure. *)
let histogram_program ?(drivers = 4) () =
  let helper =
    {
      Ast.fname = "smooth";
      params = [ param "v" Ast.Tfloat ];
      ret = Some Ast.Tfloat;
      locals = [];
      body =
        [ return_ (bin Ast.Add (bin Ast.Mul (var "v") (flt 0.5)) (flt 0.0625)) ];
      floc = dummy;
    }
  in
  let driver d =
    {
      Ast.fname = Printf.sprintf "count_%d" d;
      params = [ param "seed" Ast.Tint; param "n" Ast.Tint ];
      ret = Some Ast.Tfloat;
      locals = [ decl "i" Ast.Tint; decl "x" Ast.Tfloat ];
      body =
        [
          assign "x" (bin Ast.Mul (call "float" [ var "seed" ]) (flt 0.0625));
          for_ "i" 0 7
            [
              assign "x"
                (call "smooth"
                   [ bin Ast.Add (var "x") (call "float" [ var "i" ]) ]);
            ];
          store "hist" (int d) (var "x");
          return_ (var "x");
        ];
      floc = dummy;
    }
  in
  {
    Ast.mname = "histogram";
    sections =
      [
        {
          Ast.sname = "hist_sec";
          cells = drivers;
          globals = [ decl "hist" (Ast.Tarray (drivers, Ast.Tfloat)) ];
          funcs = helper :: List.init drivers driver;
          secloc = dummy;
        };
      ];
    imports = [];
    exports = [];
    mloc = dummy;
  }

(* --- programs exercising the dag+spec speculation machinery --- *)

(* Dynamically independent workers the analyzer cannot prove apart:
   worker [k] writes only its own [fanout] private scalar globals, so
   the pairs share no state — but compiled with [max_tracked] below
   [fanout] every summary hits the tracking cap, and sound mode pins
   every worker pair with a [Summary_limit] edge.  dag+lpt serializes
   the section; dag+spec speculates past the (cold) edges and every
   attempt commits.  Compile with [~absint:false] (or a conservative
   interval budget) so the refinement cannot discharge the limit. *)
let speculative_program ?(workers = 4) ?(fanout = 24) () =
  let gname k j = Printf.sprintf "g_%d_%d" k j in
  let worker k =
    let writes =
      List.init fanout (fun j ->
          assign (gname k j)
            (bin Ast.Add
               (bin Ast.Mul (var "x") (flt 0.5))
               (bin Ast.Mul (call "float" [ int j ]) (flt 0.0625))))
    in
    {
      Ast.fname = Printf.sprintf "stage_%d" k;
      params = [ param "seed" Ast.Tint; param "n" Ast.Tint ];
      ret = Some Ast.Tfloat;
      locals = [ decl "i" Ast.Tint; decl "x" Ast.Tfloat ];
      body =
        [
          assign "x" (bin Ast.Mul (call "float" [ var "seed" ]) (flt 0.0625));
          for_ "i" 0 7
            [
              assign "x"
                (bin Ast.Add (bin Ast.Mul (var "x") (flt 0.5)) (flt 0.125));
            ];
        ]
        @ writes
        @ [ return_ (var "x") ];
      floc = dummy;
    }
  in
  let globals =
    List.concat
      (List.init workers (fun k ->
           List.init fanout (fun j -> decl (gname k j) Ast.Tfloat)))
  in
  {
    Ast.mname = "speculative_stages";
    sections =
      [
        {
          Ast.sname = "spec_sec";
          cells = workers;
          globals;
          funcs = List.init workers worker;
          secloc = dummy;
        };
      ];
    imports = [];
    exports = [];
    mloc = dummy;
  }

(* Deliberately racy: every scatter function writes the shared
   accumulator array through a data-dependent index (derived from its
   seed parameter), which no interval reasoning can split into disjoint
   regions.  The unrefuted global conflicts make every pair a
   speculative {e and} genuinely hot edge, so dag+spec attempts that
   overlap a predecessor are rolled back by the commit oracle — the
   guaranteed-misspeculation input.  The compiled artifact is
   schedule-independent, so its output must match a sequential build
   bit for bit no matter how many rollbacks the run takes. *)
let racy_program ?(scatters = 3) () =
  let scatter k =
    {
      Ast.fname = Printf.sprintf "scatter_%d" k;
      params = [ param "seed" Ast.Tint; param "n" Ast.Tint ];
      ret = Some Ast.Tfloat;
      locals = [ decl "i" Ast.Tint; decl "s" Ast.Tint; decl "x" Ast.Tfloat ];
      body =
        [
          assign "s" (bin Ast.Mod (var "seed") (int 8));
          assign "x" (bin Ast.Mul (call "float" [ var "seed" ]) (flt 0.0625));
          for_ "i" 0 7
            [
              assign "s"
                (bin Ast.Mod
                   (bin Ast.Add (bin Ast.Mul (var "s") (int 5)) (int (3 + k)))
                   (int 8));
              store "acc"
                (var "s")
                (bin Ast.Add
                   (bin Ast.Mul (idx "acc" (var "s")) (flt 0.5))
                   (var "x"));
            ];
          return_ (bin Ast.Add (var "x") (idx "acc" (int 0)));
        ];
      floc = dummy;
    }
  in
  {
    Ast.mname = "racy_scatter";
    sections =
      [
        {
          Ast.sname = "racy_sec";
          cells = scatters;
          globals = [ decl "acc" (Ast.Tarray (8, Ast.Tfloat)) ];
          funcs = List.init scatters scatter;
          secloc = dummy;
        };
      ];
    imports = [];
    exports = [];
    mloc = dummy;
  }

(* Channel traffic with one provably dead sender: [probe]'s send sits
   in a loop whose range is empty ([for i := 1 to 0]), so its X
   multiplicity is exactly [0,0] and the protocol domain prunes its
   channel pairings with the live [pump]/[drain] pair (which keeps its
   edge: those two really do share the cell array's X stream). *)
let deadchan_program () =
  let ffun name body locals =
    {
      Ast.fname = name;
      params = [ param "seed" Ast.Tint; param "n" Ast.Tint ];
      ret = Some Ast.Tfloat;
      locals;
      body;
      floc = dummy;
    }
  in
  let probe =
    ffun "probe"
      [
        assign "x" (bin Ast.Mul (call "float" [ var "seed" ]) (flt 0.5));
        for_ "i" 1 0 [ st (Ast.Send (Ast.Chan_x, var "x")) ];
        return_ (var "x");
      ]
      [ decl "i" Ast.Tint; decl "x" Ast.Tfloat ]
  in
  let pump =
    ffun "pump"
      [
        assign "x" (bin Ast.Mul (call "float" [ var "seed" ]) (flt 0.25));
        for_ "i" 0 3
          [ st (Ast.Send (Ast.Chan_x, bin Ast.Mul (var "x") (flt 0.5))) ];
        return_ (var "x");
      ]
      [ decl "i" Ast.Tint; decl "x" Ast.Tfloat ]
  in
  let drain =
    ffun "drain"
      [
        assign "x" (flt 0.0);
        for_ "i" 0 3
          [
            st (Ast.Receive (Ast.Chan_x, Ast.Lvar "y"));
            assign "x" (bin Ast.Add (bin Ast.Mul (var "x") (flt 0.5)) (var "y"));
          ];
        return_ (var "x");
      ]
      [ decl "i" Ast.Tint; decl "x" Ast.Tfloat; decl "y" Ast.Tfloat ]
  in
  {
    Ast.mname = "deadchan";
    sections =
      [
        {
          Ast.sname = "chan_sec";
          cells = 4;
          globals = [];
          funcs = [ probe; pump; drain ];
          secloc = dummy;
        };
      ];
    imports = [];
    exports = [];
    mloc = dummy;
  }

(* --- multi-module projects for the modular cross-module analysis --- *)

type shape = Layered | Diamond | Clustered

let all_shapes = [ Layered; Diamond; Clustered ]

let shape_name = function
  | Layered -> "layered"
  | Diamond -> "diamond"
  | Clustered -> "clustered"

let shape_of_string = function
  | "layered" -> Some Layered
  | "diamond" -> Some Diamond
  | "clustered" -> Some Clustered
  | _ -> None

(* A worker function of roughly [lines] lines that uses both parameters
   (unlike [function_of_lines], whose small skeletons leave [n] unused
   and would trip W002 in a -Werror project gate).  Every kernel
   statement reads the variable it assigns, so there are no dead
   stores either: the workers are lint-clean by construction. *)
let project_worker ~name ~lines rng =
  let fill = max 0 (lines - 7) in
  let fillers =
    List.init fill (fun _ -> scalar_kernel_stmt rng ~floats:[ "x"; "y" ])
  in
  {
    Ast.fname = name;
    params = [ param "seed" Ast.Tint; param "n" Ast.Tint ];
    ret = Some Ast.Tfloat;
    locals = [ decl "x" Ast.Tfloat; decl "y" Ast.Tfloat ];
    body =
      assign "x"
        (bin Ast.Mul
           (call "float" [ bin Ast.Add (var "seed") (bin Ast.Mod (var "n") (int 5)) ])
           (flt 0.0625))
      :: assign "y" (flt 0.5)
      :: fillers
      @ [ return_ (bin Ast.Add (var "x") (var "y")) ];
    floc = dummy;
  }

(* The entry function of a project module: folds every local worker and
   every imported function into an accumulator (damped, so interpreted
   values stay bounded).  [extra] statements run after the calls —
   hooks for the private-global and channel couplings below. *)
let project_main ~name ~callees ~extra ~extra_locals =
  let calls =
    List.mapi
      (fun k callee ->
        assign "acc"
          (bin Ast.Mul
             (bin Ast.Add (var "acc")
                (call callee [ bin Ast.Add (var "seed") (int k); var "n" ]))
             (flt 0.5)))
      callees
  in
  {
    Ast.fname = name;
    params = [ param "seed" Ast.Tint; param "n" Ast.Tint ];
    ret = Some Ast.Tfloat;
    locals = decl "acc" Ast.Tfloat :: extra_locals;
    body =
      (assign "acc" (bin Ast.Mul (call "float" [ var "seed" ]) (flt 0.25)) :: calls)
      @ extra
      @ [ return_ (var "acc") ];
    floc = dummy;
  }

(* A synthetic multi-module W2 project: [modules] single-section
   modules wired by [import]/[export] declarations, deterministic in
   (shape, modules, seed).

   Conventions (what [Analysis.Modan] and the link experiments rely
   on): module [i] is named "m<i>", its section "sec_m<i>"; function
   [j] of module [i] is "m<i>_f<j>" (globally unique); "m<i>_f0" is the
   module's entry and calls every local sibling and every import, so
   W007 never fires; a module exports exactly the functions some other
   module imports, so W012 never fires; every import restates the
   actual (int, int) : float signature, so W010 never fires.  The list
   is returned in dependency order: imports only point at
   earlier modules.

   - [Layered]: four layers; each module of layer L > 0 imports the
     worker of one or two modules of layer L-1.  Lint-clean.
   - [Diamond]: one root; middles import the root's worker; the last
     module imports up to 32 middle workers (and the root directly
     when there are no middles).  Lint-clean.
   - [Clustered]: clusters of eight.  Each cluster's hub owns a
     cluster global [cg_c<c>] behind a single accessor function that
     three client members import and call, so their composed summaries
     really couple on the hub's state; the first client also localizes
     a private global of the {e same name}, the W011 witness.  Every
     fourth cluster routes one client through channel X (matched
     send/receive, so W009 stays quiet).  Trips W011 by design;
     otherwise clean. *)
let project_program ?(modules = 100) ?(seed = 1) ~shape () : Ast.modul list =
  if modules < 2 then
    invalid_arg "Gen.project_program: need at least 2 modules";
  let n = modules in
  let rng = rng_make (Hashtbl.hash (shape_name shape, n, seed)) in
  let mname i = Printf.sprintf "m%d" i in
  let fname i j = Printf.sprintf "m%d_f%d" i j in
  let worker_lines () =
    [| 4; 6; 10; 18; 35 |].(rng_next rng 5)
  in
  let cluster = 8 in
  (* Imports of module [i], as (provider index, provider function
     index) pairs; computed for every module in order so the rng
     stream is deterministic. *)
  let layer i = i * 4 / n in
  let layer_range l =
    (* first (inclusive) and last (exclusive) module index of layer l *)
    let lo = (l * n + 3) / 4 in
    (* invert [layer]: smallest i with i*4/n = l *)
    let lo = if layer lo = l then lo else lo + 1 in
    let rec first j = if j > 0 && layer (j - 1) = l then first (j - 1) else j in
    let lo = first lo in
    let rec last j = if j < n && layer j = l then last (j + 1) else j in
    (lo, last lo)
  in
  let imports_of i =
    match shape with
    | Layered ->
      let l = layer i in
      if l = 0 then []
      else begin
        let lo, hi = layer_range (l - 1) in
        let width = hi - lo in
        let p1 = lo + rng_next rng width in
        let two = width > 1 && rng_next rng 2 = 0 in
        if two then begin
          let p2 = lo + rng_next rng width in
          if p2 = p1 then [ (p1, 1) ] else [ (p1, 1); (p2, 1) ]
        end
        else [ (p1, 1) ]
      end
    | Diamond ->
      if i = 0 then []
      else if i < n - 1 then [ (0, 1) ]
      else if n = 2 then [ (0, 1) ]
      else List.init (min 32 (n - 2)) (fun k -> (1 + k, 1))
    | Clustered ->
      let c = i / cluster and pos = i mod cluster in
      let hub = c * cluster in
      if pos = 0 then []
      else if pos <= 3 then [ (hub, 0) ] (* the hub's accessor *)
      else [ (i - 1, 1) ] (* chain through the previous member *)
  in
  let imports = Array.init n imports_of in
  (* Exports: exactly the functions somebody imports. *)
  let exported = Hashtbl.create 64 in
  Array.iter
    (List.iter (fun (p, j) -> Hashtbl.replace exported (fname p j) ()))
    imports;
  let modul_of i =
    let is_clustered_hub = shape = Clustered && i mod cluster = 0 in
    let c = i / cluster and pos = i mod cluster in
    let cg = Printf.sprintf "cg_c%d" c in
    let funcs, globals =
      if is_clustered_hub then begin
        (* Single accessor owning the cluster global: reads and writes
           it, and is the section's first function, so neither W007 nor
           W008 fires. *)
        let acc =
          {
            Ast.fname = fname i 0;
            params = [ param "seed" Ast.Tint; param "n" Ast.Tint ];
            ret = Some Ast.Tfloat;
            locals = [ decl "x" Ast.Tfloat ];
            body =
              [
                assign "x"
                  (bin Ast.Mul
                     (call "float"
                        [ bin Ast.Add (var "seed") (bin Ast.Mod (var "n") (int 3)) ])
                     (flt 0.125));
                assign cg (bin Ast.Add (bin Ast.Mul (var cg) (flt 0.5)) (var "x"));
                return_ (var cg);
              ];
            floc = dummy;
          }
        in
        ([ acc ], [ decl cg Ast.Tfloat ])
      end
      else begin
        let w1 = project_worker ~name:(fname i 1) ~lines:(worker_lines ()) rng in
        let w2 = project_worker ~name:(fname i 2) ~lines:(worker_lines ()) rng in
        let g = Printf.sprintf "g_m%d" i in
        (* The first clustered client localizes a global of the same
           name as the hub's cluster global — the W011 witness; every
           fourth cluster's second client exercises channel X. *)
        let w011_witness = shape = Clustered && pos = 1 in
        let channels = shape = Clustered && pos = 2 && c mod 4 = 3 in
        let private_global = if w011_witness then cg else g in
        let extra =
          [
            assign private_global (bin Ast.Mul (var "acc") (flt 0.5));
            assign "acc"
              (bin Ast.Mul
                 (bin Ast.Add (var "acc") (var private_global))
                 (flt 0.5));
          ]
          @
          if channels then
            [
              st (Ast.Send (Ast.Chan_x, bin Ast.Mul (var "acc") (flt 0.5)));
              st (Ast.Receive (Ast.Chan_x, Ast.Lvar "tmp"));
              assign "acc"
                (bin Ast.Mul (bin Ast.Add (var "acc") (var "tmp")) (flt 0.5));
            ]
          else []
        in
        let extra_locals = if channels then [ decl "tmp" Ast.Tfloat ] else [] in
        let callees =
          [ fname i 1; fname i 2 ]
          @ List.map (fun (p, j) -> fname p j) imports.(i)
        in
        let main =
          project_main ~name:(fname i 0) ~callees ~extra ~extra_locals
        in
        ([ main; w1; w2 ], [ decl private_global Ast.Tfloat ])
      end
    in
    let import_decls =
      (* One declaration per provider, in provider order. *)
      let by_provider = Hashtbl.create 4 in
      let providers = ref [] in
      List.iter
        (fun (p, j) ->
          if not (Hashtbl.mem by_provider p) then begin
            Hashtbl.replace by_provider p [];
            providers := p :: !providers
          end;
          Hashtbl.replace by_provider p (j :: Hashtbl.find by_provider p))
        imports.(i);
      List.rev_map
        (fun p ->
          {
            Ast.im_module = mname p;
            im_sigs =
              List.rev_map
                (fun j ->
                  {
                    Ast.is_name = fname p j;
                    is_params = [ Ast.Tint; Ast.Tint ];
                    is_ret = Some Ast.Tfloat;
                    is_loc = dummy;
                  })
                (Hashtbl.find by_provider p);
            im_loc = dummy;
          })
        !providers
    in
    let export_decls =
      List.filter_map
        (fun (f : Ast.func) ->
          if Hashtbl.mem exported f.Ast.fname then
            Some { Ast.ex_name = f.Ast.fname; ex_loc = dummy }
          else None)
        funcs
    in
    {
      Ast.mname = mname i;
      imports = import_decls;
      exports = export_decls;
      sections =
        [
          {
            Ast.sname = Printf.sprintf "sec_m%d" i;
            cells = 1;
            globals;
            funcs;
            secloc = dummy;
          };
        ];
      mloc = dummy;
    }
  in
  List.init n modul_of

(* --- the compile-cache experiments' "programmer edit" --- *)

(* A behaviour-preserving edit of one function: prepend a dead
   conditional to its body.  It parses and type-checks, changes the
   rendered source — hence the analyzer's content hash and every
   compile-cache key derived from it — while leaving the effect
   summaries, the dependence DAG and the generated code's semantics
   alone.  That makes it the minimal model of a programmer touching one
   function: exactly the touched function and its transitive dependence
   dependents must recompile, nothing else. *)
let touch (f : Ast.func) : Ast.func =
  { f with Ast.body = st (Ast.If (ex (Ast.Bool_lit false), [], [])) :: f.Ast.body }

let touch_in (m : Ast.modul) name : Ast.modul =
  let hits = ref 0 in
  let edited =
    {
      m with
      Ast.sections =
        List.map
          (fun (sec : Ast.section) ->
            {
              sec with
              Ast.funcs =
                List.map
                  (fun (f : Ast.func) ->
                    if f.Ast.fname = name then begin
                      incr hits;
                      touch f
                    end
                    else f)
                  sec.Ast.funcs;
            })
          m.Ast.sections;
    }
  in
  if !hits = 0 then
    invalid_arg (Printf.sprintf "Gen.touch_in: no function %S in module %s" name m.Ast.mname);
  edited
