(* Abstract interpretation over the W2 AST: array regions, channel
   protocols and static cost, interprocedurally closed with widening.

   Everything over-approximates concrete execution.  Two deliberate
   coarsenings keep the code small without risking soundness of the
   refutations Depan consumes:

   - early [return] is ignored for control flow, and both operands of
     a short-circuit [and]/[or] are interpreted.  Both only *inflate*
     upper bounds (regions, multiplicities, cost); refutations rely on
     upper bounds being sound, never on lower bounds being tight.
   - parameters are unknown (top), so one context-insensitive summary
     per function serves every call site. *)

module Ast = W2.Ast
module SM = Map.Make (String)

(* --- intervals --- *)

type itv = { lo : int option; hi : int option }

let itv_const n = { lo = Some n; hi = Some n }
let itv_top = { lo = None; hi = None }
let itv_zero = itv_const 0
let itv_one = itv_const 1

let min_lo a b =
  match (a, b) with
  | None, _ | _, None -> None
  | Some x, Some y -> Some (min x y)

let max_hi a b =
  match (a, b) with
  | None, _ | _, None -> None
  | Some x, Some y -> Some (max x y)

let itv_join a b = { lo = min_lo a.lo b.lo; hi = max_hi a.hi b.hi }

let itv_widen old fresh =
  {
    lo =
      (match (old.lo, fresh.lo) with
      | _, None -> None
      | Some o, Some f when f < o -> None
      | o, _ -> o);
    hi =
      (match (old.hi, fresh.hi) with
      | _, None -> None
      | Some o, Some f when f > o -> None
      | o, _ -> o);
  }

let itv_equal a b = a.lo = b.lo && a.hi = b.hi

let itv_to_string { lo; hi } =
  let l = match lo with Some n -> Printf.sprintf "[%d" n | None -> "(-inf" in
  let h = match hi with Some n -> Printf.sprintf "%d]" n | None -> "+inf)" in
  l ^ "," ^ h

let add_b a b =
  match (a, b) with Some x, Some y -> Some (x + y) | _ -> None

let itv_add a b = { lo = add_b a.lo b.lo; hi = add_b a.hi b.hi }
let itv_neg a = { lo = Option.map ( ~- ) a.hi; hi = Option.map ( ~- ) a.lo }
let itv_sub a b = itv_add a (itv_neg b)

(* Extended bounds for multiplication, where sign handling needs the
   full case analysis.  0 × infinity is 0: the infinite factor is a
   bound of integers actually attained, so the product's bound is 0. *)
type eb = Ninf | Fin of int | Pinf

let eb_neg = function Ninf -> Pinf | Pinf -> Ninf | Fin x -> Fin (-x)

let eb_mul a b =
  match (a, b) with
  | Fin 0, _ | _, Fin 0 -> Fin 0
  | Fin x, Fin y -> Fin (x * y)
  | (Ninf | Pinf), Fin y -> if y > 0 then a else eb_neg a
  | Fin x, (Ninf | Pinf) -> if x > 0 then b else eb_neg b
  | Pinf, Pinf | Ninf, Ninf -> Pinf
  | Pinf, Ninf | Ninf, Pinf -> Ninf

let eb_le a b =
  match (a, b) with
  | Ninf, _ | _, Pinf -> true
  | _, Ninf | Pinf, _ -> false
  | Fin x, Fin y -> x <= y

let itv_mul a b =
  let lo_eb v = match v with Some x -> Fin x | None -> Ninf in
  let hi_eb v = match v with Some x -> Fin x | None -> Pinf in
  let products =
    [
      eb_mul (lo_eb a.lo) (lo_eb b.lo);
      eb_mul (lo_eb a.lo) (hi_eb b.hi);
      eb_mul (hi_eb a.hi) (lo_eb b.lo);
      eb_mul (hi_eb a.hi) (hi_eb b.hi);
    ]
  in
  let mn = List.fold_left (fun m x -> if eb_le x m then x else m) Pinf products in
  let mx = List.fold_left (fun m x -> if eb_le m x then x else m) Ninf products in
  {
    lo = (match mn with Fin x -> Some x | _ -> None);
    hi = (match mx with Fin x -> Some x | _ -> None);
  }

(* [a mod k] with the dividend's sign (the interpreter uses OCaml's
   [mod]): bounded by |k|-1 in magnitude, non-negative when the
   dividend provably is. *)
let itv_mod a b =
  match (b.lo, b.hi) with
  | Some k, Some k' when k = k' && k <> 0 ->
    let m = abs k - 1 in
    if (match a.lo with Some x -> x >= 0 | None -> false) then
      { lo = Some 0; hi = Some (match a.hi with Some h -> min h m | None -> m) }
    else { lo = Some (-m); hi = Some m }
  | _ -> itv_top

(* Non-negative clamp, for trip counts and multiplicities. *)
let itv_clamp_nonneg a =
  {
    lo = Some (match a.lo with Some x -> max 0 x | None -> 0);
    hi = (match a.hi with Some x -> Some (max 0 x) | None -> None);
  }

(* --- tri-state comparisons (booleans are 0/1 intervals) --- *)

let itv_of_truth = function
  | Some true -> itv_const 1
  | Some false -> itv_const 0
  | None -> { lo = Some 0; hi = Some 1 }

let truth v =
  if v.lo = Some 1 && v.hi = Some 1 then Some true
  else if v.lo = Some 0 && v.hi = Some 0 then Some false
  else None

let cmp_lt a b =
  match (a.hi, b.lo) with
  | Some ah, Some bl when ah < bl -> Some true
  | _ -> (
    match (a.lo, b.hi) with
    | Some al, Some bh when al >= bh -> Some false
    | _ -> None)

let cmp_le a b =
  match (a.hi, b.lo) with
  | Some ah, Some bl when ah <= bl -> Some true
  | _ -> (
    match (a.lo, b.hi) with
    | Some al, Some bh when al > bh -> Some false
    | _ -> None)

let cmp_eq a b =
  match (a.lo, a.hi, b.lo, b.hi) with
  | Some al, Some ah, Some bl, Some bh when al = ah && bl = bh && al = bl ->
    Some true
  | _ ->
    if
      (match (a.hi, b.lo) with Some ah, Some bl -> ah < bl | _ -> false)
      || match (b.hi, a.lo) with Some bh, Some al -> bh < al | _ -> false
    then Some false
    else None

let truth_not = Option.map not

(* --- regions --- *)

type region = Empty | Slices of itv list | All

let itv_overlaps_or_adjacent x y =
  let before hi lo =
    (* strictly before with a gap: hi + 1 < lo *)
    match (hi, lo) with Some h, Some l -> h + 1 < l | _ -> false
  in
  not (before x.hi y.lo || before y.hi x.lo)

let itv_overlaps x y =
  let before hi lo =
    match (hi, lo) with Some h, Some l -> h < l | _ -> false
  in
  not (before x.hi y.lo || before y.hi x.lo)

let slice_cmp a b =
  let key v = match v with None -> min_int | Some x -> x in
  compare (key a.lo, key a.hi) (key b.lo, key b.hi)

let norm_slices ~max_intervals slices =
  let sorted = List.sort slice_cmp slices in
  let merged =
    List.fold_left
      (fun acc s ->
        match acc with
        | cur :: rest when itv_overlaps_or_adjacent cur s -> itv_join cur s :: rest
        | _ -> s :: acc)
      [] sorted
    |> List.rev
  in
  (* Checked after the merge: two half-unbounded slices can meet, and
     [All] must stay the only form of the unbounded region. *)
  match merged with
  | [] -> Empty
  | _ when List.exists (fun s -> s.lo = None && s.hi = None) merged -> All
  | _ when List.length merged > max_intervals -> All
  | _ -> Slices merged

let region_union ~max_intervals a b =
  match (a, b) with
  | Empty, r | r, Empty -> r
  | All, _ | _, All -> All
  | Slices xs, Slices ys -> norm_slices ~max_intervals (xs @ ys)

let regions_disjoint a b =
  match (a, b) with
  | Empty, _ | _, Empty -> true
  | All, _ | _, All -> false
  | Slices xs, Slices ys ->
    not (List.exists (fun x -> List.exists (itv_overlaps x) ys) xs)

let region_equal a b =
  match (a, b) with
  | Empty, Empty | All, All -> true
  | Slices xs, Slices ys ->
    List.length xs = List.length ys && List.for_all2 itv_equal xs ys
  | _ -> false

let region_to_string = function
  | Empty -> "{}"
  | All -> "all"
  | Slices xs -> String.concat "u" (List.map itv_to_string xs)

(* --- summaries --- *)

type chan_use = { cu_send : itv; cu_recv : itv }
type purity = Pure | Read_only | Effectful

let purity_to_string = function
  | Pure -> "pure"
  | Read_only -> "read_only"
  | Effectful -> "effectful"

type summary = {
  s_reads : (string * region) list;
  s_writes : (string * region) list;
  s_x : chan_use;
  s_y : chan_use;
  s_cost : itv;
}

let cu_zero = { cu_send = itv_zero; cu_recv = itv_zero }

let bottom =
  { s_reads = []; s_writes = []; s_x = cu_zero; s_y = cu_zero;
    s_cost = itv_zero }

let lookup_region map g =
  match List.assoc_opt g map with Some r -> r | None -> Empty

let read_region s g = lookup_region s.s_reads g
let write_region s g = lookup_region s.s_writes g

let access_region s g =
  region_union ~max_intervals:max_int (read_region s g) (write_region s g)

let chan_silent s (c : Ast.channel) =
  let cu = match c with Ast.Chan_x -> s.s_x | Ast.Chan_y -> s.s_y in
  cu.cu_send.hi = Some 0 && cu.cu_recv.hi = Some 0

let summary_purity s =
  let silent = chan_silent s Ast.Chan_x && chan_silent s Ast.Chan_y in
  if s.s_writes = [] && silent then
    if s.s_reads = [] then Pure else Read_only
  else Effectful

let global_conflict_refuted a b g =
  regions_disjoint (write_region a g) (access_region b g)
  && regions_disjoint (write_region b g) (access_region a g)

let conflicts a b =
  let globals =
    List.sort_uniq String.compare
      (List.map fst (a.s_reads @ a.s_writes @ b.s_reads @ b.s_writes))
  in
  let gs = List.filter (fun g -> not (global_conflict_refuted a b g)) globals in
  let cs =
    List.filter
      (fun c ->
        let touches s =
          let cu = match c with Ast.Chan_x -> s.s_x | Ast.Chan_y -> s.s_y in
          cu.cu_send.hi <> Some 0 || cu.cu_recv.hi <> Some 0
        in
        touches a && touches b)
      [ Ast.Chan_x; Ast.Chan_y ]
  in
  (gs, cs)

let conflict_free a b = conflicts a b = ([], [])

let cost_units (c : itv) =
  let lo = match c.lo with Some x -> max 0 x | None -> 0 in
  match c.hi with
  | Some hi -> max 1 ((lo + hi + 1) / 2)
  | None -> max 1 (4 * max 1 lo)

(* --- the abstract executor --- *)

(* Channel-op multiplicities and cost are flow-sensitive, so they flow
   through the executor functionally; regions only ever grow by union
   (idempotent), so they accumulate in the context. *)
type usage = { ux : chan_use; uy : chan_use; ucost : itv }

let u_zero = { ux = cu_zero; uy = cu_zero; ucost = itv_zero }

let cu_add a b =
  { cu_send = itv_add a.cu_send b.cu_send;
    cu_recv = itv_add a.cu_recv b.cu_recv }

let cu_join a b =
  { cu_send = itv_join a.cu_send b.cu_send;
    cu_recv = itv_join a.cu_recv b.cu_recv }

let cu_scale a k =
  { cu_send = itv_clamp_nonneg (itv_mul a.cu_send k);
    cu_recv = itv_clamp_nonneg (itv_mul a.cu_recv k) }

let u_add a b =
  { ux = cu_add a.ux b.ux; uy = cu_add a.uy b.uy;
    ucost = itv_add a.ucost b.ucost }

let u_join a b =
  { ux = cu_join a.ux b.ux; uy = cu_join a.uy b.uy;
    ucost = itv_join a.ucost b.ucost }

let u_scale a k =
  { ux = cu_scale a.ux k; uy = cu_scale a.uy k;
    ucost = itv_clamp_nonneg (itv_mul a.ucost k) }

let u_cost n u = { u with ucost = itv_add u.ucost (itv_const n) }

type ctx = {
  garr : (string, bool) Hashtbl.t; (* global name -> is it an array? *)
  sums : string -> summary option; (* current interprocedural summaries *)
  max_intervals : int;
  mutable creads : region SM.t;
  mutable cwrites : region SM.t;
}

let is_global ctx n = Hashtbl.mem ctx.garr n

let record side ctx g r =
  let max_intervals = ctx.max_intervals in
  let upd m =
    SM.update g
      (function
        | None -> Some r
        | Some r0 -> Some (region_union ~max_intervals r0 r))
      m
  in
  match side with
  | `Read -> ctx.creads <- upd ctx.creads
  | `Write -> ctx.cwrites <- upd ctx.cwrites

(* The element region one index interval denotes; an array indexed by
   an unknown value is the whole array, a scalar is always whole. *)
let region_of_access ctx g idx =
  if Hashtbl.find ctx.garr g then
    match idx with
    | Some i when not (i.lo = None && i.hi = None) -> Slices [ i ]
    | _ -> All
  else All

(* A call to something we cannot resolve (defensive; the checker rules
   it out): assume it clobbers every global and both channels. *)
let havoc ctx =
  Hashtbl.iter
    (fun g _ ->
      record `Read ctx g All;
      record `Write ctx g All)
    ctx.garr;
  { ux = { cu_send = itv_clamp_nonneg itv_top; cu_recv = itv_clamp_nonneg itv_top };
    uy = { cu_send = itv_clamp_nonneg itv_top; cu_recv = itv_clamp_nonneg itv_top };
    ucost = itv_clamp_nonneg itv_top }

let apply_call ctx name =
  if Ast.is_builtin name then u_zero
  else
    match ctx.sums name with
    | None -> havoc ctx
    | Some s ->
      List.iter (fun (g, r) -> record `Read ctx g r) s.s_reads;
      List.iter (fun (g, r) -> record `Write ctx g r) s.s_writes;
      { ux = s.s_x; uy = s.s_y; ucost = s.s_cost }

(* Environments map locals (and parameters) to intervals; an absent
   binding is top, and top is never stored, so joins are intersections
   of the key sets. *)
let env_set env n v =
  if v.lo = None && v.hi = None then SM.remove n env else SM.add n v env

let env_lookup env n =
  match SM.find_opt n env with Some v -> v | None -> itv_top

let env_merge f a b =
  SM.merge
    (fun _ x y ->
      match (x, y) with
      | Some x, Some y ->
        let v = f x y in
        if v.lo = None && v.hi = None then None else Some v
      | _ -> None)
    a b

let env_join = env_merge itv_join
let env_widen = env_merge itv_widen
let env_equal = SM.equal itv_equal

let rec eval_expr ctx env (x : Ast.expr) : itv * usage =
  match x.e with
  | Ast.Int_lit n -> (itv_const n, u_zero)
  | Ast.Float_lit _ -> (itv_top, u_zero)
  | Ast.Bool_lit b -> (itv_const (if b then 1 else 0), u_zero)
  | Ast.Var n ->
    if is_global ctx n then begin
      record `Read ctx n (region_of_access ctx n None);
      (itv_top, u_zero)
    end
    else (env_lookup env n, u_zero)
  | Ast.Index (n, i) ->
    let iv, u = eval_expr ctx env i in
    if is_global ctx n then record `Read ctx n (region_of_access ctx n (Some iv));
    (itv_top, u)
  | Ast.Unary (Ast.Neg, a) ->
    let v, u = eval_expr ctx env a in
    (itv_neg v, u)
  | Ast.Unary (Ast.Not, a) ->
    let v, u = eval_expr ctx env a in
    (itv_of_truth (truth_not (truth v)), u)
  | Ast.Binary (op, a, b) ->
    let va, ua = eval_expr ctx env a in
    let vb, ub = eval_expr ctx env b in
    let u = u_add ua ub in
    let v =
      match op with
      | Ast.Add -> itv_add va vb
      | Ast.Sub -> itv_sub va vb
      | Ast.Mul -> itv_mul va vb
      | Ast.Div -> itv_top
      | Ast.Mod -> itv_mod va vb
      | Ast.Lt -> itv_of_truth (cmp_lt va vb)
      | Ast.Le -> itv_of_truth (cmp_le va vb)
      | Ast.Gt -> itv_of_truth (cmp_lt vb va)
      | Ast.Ge -> itv_of_truth (cmp_le vb va)
      | Ast.Eq -> itv_of_truth (cmp_eq va vb)
      | Ast.Ne -> itv_of_truth (truth_not (cmp_eq va vb))
      | Ast.And ->
        itv_of_truth
          (match (truth va, truth vb) with
          | Some false, _ | _, Some false -> Some false
          | Some true, Some true -> Some true
          | _ -> None)
      | Ast.Or ->
        itv_of_truth
          (match (truth va, truth vb) with
          | Some true, _ | _, Some true -> Some true
          | Some false, Some false -> Some false
          | _ -> None)
    in
    (v, u)
  | Ast.Call (n, args) ->
    let u =
      List.fold_left
        (fun acc a ->
          let _, ua = eval_expr ctx env a in
          u_add acc ua)
        u_zero args
    in
    (itv_top, u_add u (apply_call ctx n))

let eval_lvalue ctx env = function
  | Ast.Lvar n ->
    if is_global ctx n then
      record `Write ctx n (region_of_access ctx n None);
    u_zero
  | Ast.Lindex (n, i) ->
    let iv, u = eval_expr ctx env i in
    if is_global ctx n then
      record `Write ctx n (region_of_access ctx n (Some iv));
    u

let assign_env env lv v =
  match lv with
  | Ast.Lvar n -> env_set env n v
  | Ast.Lindex _ -> env (* array elements are not value-tracked *)

(* Loop-body fixpoint on the environment.  [pin] re-asserts bindings
   the loop header owns (the counted-loop variable).  Widening kicks in
   after two rounds, so every binding's bounds can move at most a few
   times before jumping to infinity: termination is structural.
   Returns the pinned fixpoint and the body's usage from the last
   round, which ran on that fixpoint: running the body once more would
   give the same usage and record only regions already recorded. *)
let rec fix_loop ctx ~pin body env round =
  let env = pin env in
  let env_b, ub = exec_stmts ctx env body in
  let joined = env_join env env_b in
  let joined = if round >= 2 then env_widen env joined else joined in
  if env_equal (pin joined) env then (env, ub)
  else fix_loop ctx ~pin body joined (round + 1)

and exec_stmts ctx env (stmts : Ast.stmt list) : itv SM.t * usage =
  List.fold_left
    (fun (env, u) s ->
      let env', us = exec_stmt ctx env s in
      (env', u_add u us))
    (env, u_zero) stmts

and exec_stmt ctx env (s : Ast.stmt) : itv SM.t * usage =
  match s.s with
  | Ast.Assign (lv, x) ->
    let v, ux = eval_expr ctx env x in
    let ul = eval_lvalue ctx env lv in
    (assign_env env lv v, u_cost 1 (u_add ux ul))
  | Ast.If (c, t, f) ->
    let cv, uc = eval_expr ctx env c in
    (match truth cv with
    | Some true ->
      let env', ut = exec_stmts ctx env t in
      (env', u_cost 1 (u_add uc ut))
    | Some false ->
      let env', uf = exec_stmts ctx env f in
      (env', u_cost 1 (u_add uc uf))
    | None ->
      let env_t, ut = exec_stmts ctx env t in
      let env_f, uf = exec_stmts ctx env f in
      (env_join env_t env_f, u_cost 1 (u_add uc (u_join ut uf))))
  | Ast.While (c, body) ->
    let cv, uc = eval_expr ctx env c in
    (match truth cv with
    | Some false -> (env, u_cost 1 uc)
    | _ ->
      let env_fix, ub = fix_loop ctx ~pin:(fun e -> e) body env 0 in
      let _, uc_fix = eval_expr ctx env_fix c in
      let per_iter = u_cost 1 (u_add uc_fix ub) in
      let trips = { lo = Some 0; hi = None } in
      (env_join env env_fix, u_cost 1 (u_add uc (u_scale per_iter trips))))
  | Ast.For (v, lo, hi, body) ->
    let ilo, ul = eval_expr ctx env lo in
    let ihi, uh = eval_expr ctx env hi in
    let bounds_u = u_cost 1 (u_add ul uh) in
    let trips =
      {
        lo =
          Some
            (match (ihi.lo, ilo.hi) with
            | Some h, Some l -> max 0 (h - l + 1)
            | _ -> 0);
        hi =
          (match (ihi.hi, ilo.lo) with
          | Some h, Some l -> Some (max 0 (h - l + 1))
          | _ -> None);
      }
    in
    if trips.hi = Some 0 then (env_set env v ilo, bounds_u)
    else begin
      let vrange = { lo = ilo.lo; hi = ihi.hi } in
      let pin e = env_set e v vrange in
      let env_fix, ub = fix_loop ctx ~pin body env 0 in
      let after = itv_join ilo (itv_add ihi itv_one) in
      let env' = env_set (env_join env env_fix) v after in
      (env', u_add bounds_u (u_scale (u_cost 1 ub) trips))
    end
  | Ast.Send (c, x) ->
    let _, u = eval_expr ctx env x in
    let bump cu = { cu with cu_send = itv_add cu.cu_send itv_one } in
    let u = u_cost 1 u in
    ( env,
      match c with
      | Ast.Chan_x -> { u with ux = bump u.ux }
      | Ast.Chan_y -> { u with uy = bump u.uy } )
  | Ast.Receive (c, lv) ->
    let ul = eval_lvalue ctx env lv in
    let env = assign_env env lv itv_top in
    let bump cu = { cu with cu_recv = itv_add cu.cu_recv itv_one } in
    let u = u_cost 1 ul in
    ( env,
      match c with
      | Ast.Chan_x -> { u with ux = bump u.ux }
      | Ast.Chan_y -> { u with uy = bump u.uy } )
  | Ast.Return None -> (env, u_cost 1 u_zero)
  | Ast.Return (Some x) ->
    let _, u = eval_expr ctx env x in
    (env, u_cost 1 u)
  | Ast.Call_stmt (n, args) ->
    let u =
      List.fold_left
        (fun acc a ->
          let _, ua = eval_expr ctx env a in
          u_add acc ua)
        u_zero args
    in
    (env, u_cost 1 (u_add u (apply_call ctx n)))

(* --- per-function and interprocedural analysis --- *)

let default_max_intervals = 8

let summarize ctx (f : Ast.func) : summary =
  ctx.creads <- SM.empty;
  ctx.cwrites <- SM.empty;
  (* Locals start default-initialized (ints at 0, like the reference
     interpreter); parameters are unknown. *)
  let env =
    List.fold_left
      (fun env (d : Ast.decl) ->
        match d.dty with
        | Ast.Tint | Ast.Tbool -> env_set env d.dname itv_zero
        | _ -> env)
      SM.empty f.locals
  in
  let _, u = exec_stmts ctx env f.body in
  let dump m =
    SM.bindings m |> List.filter (fun (_, r) -> r <> Empty)
  in
  {
    s_reads = dump ctx.creads;
    s_writes = dump ctx.cwrites;
    s_x = u.ux;
    s_y = u.uy;
    s_cost = itv_clamp_nonneg u.ucost;
  }

let summary_equal a b =
  a.s_reads = b.s_reads && a.s_writes = b.s_writes
  && a.s_x = b.s_x && a.s_y = b.s_y && itv_equal a.s_cost b.s_cost

(* Round-limit widening for the interprocedural fixpoint: a recursive
   cycle grows cost and multiplicities every sweep, so past the limit
   any still-moving interval jumps to infinity and any still-moving
   region to All, after which the cycle is stationary. *)
let widen_summary old fresh =
  let widen_regions o f =
    List.map
      (fun (g, r) ->
        (g, if region_equal (lookup_region o g) r then r else All))
      f
  in
  let widen_cu o f =
    { cu_send = itv_widen o.cu_send f.cu_send;
      cu_recv = itv_widen o.cu_recv f.cu_recv }
  in
  {
    s_reads = widen_regions old.s_reads fresh.s_reads;
    s_writes = widen_regions old.s_writes fresh.s_writes;
    s_x = widen_cu old.s_x fresh.s_x;
    s_y = widen_cu old.s_y fresh.s_y;
    s_cost = itv_widen old.s_cost fresh.s_cost;
  }

let analyze_section ?(max_intervals = default_max_intervals)
    (sec : Ast.section) : (string * summary) list =
  let garr = Hashtbl.create 8 in
  List.iter
    (fun (d : Ast.decl) ->
      Hashtbl.replace garr d.dname
        (match d.dty with Ast.Tarray _ -> true | _ -> false))
    sec.globals;
  let funcs = Array.of_list sec.funcs in
  let index = Hashtbl.create 16 in
  Array.iteri (fun i (f : Ast.func) -> Hashtbl.replace index f.fname i) funcs;
  let callees (f : Ast.func) =
    let cs = ref [] in
    Ast.iter_stmts (function Ast.Call n -> cs := n :: !cs | _ -> ()) f.body;
    List.filter_map (Hashtbl.find_opt index) !cs
  in
  let sums, _ =
    Digraph.solve
      ~widen:((2 * Array.length funcs) + 4, widen_summary)
      (Array.map callees funcs) ~equal:summary_equal
      ~init:(fun _ -> bottom)
      ~step:(fun get i ->
        let sums n = Option.map get (Hashtbl.find_opt index n) in
        summarize
          { garr; sums; max_intervals; creads = SM.empty; cwrites = SM.empty }
          funcs.(i))
  in
  List.mapi (fun i (f : Ast.func) -> (f.fname, sums.(i))) sec.funcs
