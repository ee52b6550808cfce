(* Optimization pipeline for phase 2.

   Runs local cleanup (constant folding, local value numbering, global
   constant propagation, dead-code elimination, CFG simplification) to a
   fixpoint, then the loop optimizations (invariant code motion,
   strength reduction and—at the highest level—full unrolling),
   followed by a final cleanup round.

   Levels:
     0  no optimization (flowgraph construction only)
     1  local cleanup
     2  + loop-invariant code motion and strength reduction  (default)
     3  + loop unrolling

   The [stats] record both describes what happened and feeds the
   compilation cost model: [work] counts instruction visits, which is
   the deterministic work-unit measure used to derive simulated
   compilation times. *)

type stats = {
  mutable rounds : int;
  mutable folded : int;
  mutable numbered : int;
  mutable propagated : int;
  mutable cse_global : int;
  mutable eliminated : int;
  mutable simplified : int;
  mutable if_converted : int;
  mutable hoisted : int;
  mutable reduced : int;
  mutable unrolled : int;
  mutable work : int; (* instruction visits across all passes *)
}

let empty_stats () =
  {
    rounds = 0;
    folded = 0;
    numbered = 0;
    propagated = 0;
    cse_global = 0;
    eliminated = 0;
    simplified = 0;
    if_converted = 0;
    hoisted = 0;
    reduced = 0;
    unrolled = 0;
    work = 0;
  }

let total_changes s =
  s.folded + s.numbered + s.propagated + s.cse_global + s.eliminated
  + s.simplified + s.if_converted + s.hoisted + s.reduced + s.unrolled

let max_rounds = 12

(* With [verify_each], re-verify the IR after every pass and attribute a
   violation to the pass that introduced it (LLVM's -verify-each). *)
let verify_after ~verify_each pass (f : Ir.func) =
  if verify_each then
    match Irverify.check_func ~pass f with
    | [] -> ()
    | violations -> raise (Irverify.Invalid violations)

let cleanup_round ?(verify_each = false) (f : Ir.func) (s : stats) : int =
  let charge pass =
    s.work <- s.work + Ir.instr_count f;
    verify_after ~verify_each pass f
  in
  let c1 = Constfold.run f in
  charge "constfold";
  let c2 = Lvn.run f in
  charge "lvn";
  let c3 = Gcp.run f in
  charge "gcp";
  let c3b = Gcse.run f in
  charge "gcse";
  let c4 = Dce.run f in
  charge "dce";
  let c5 = Cfg.simplify f in
  charge "cfg-simplify";
  s.folded <- s.folded + c1;
  s.numbered <- s.numbered + c2;
  s.propagated <- s.propagated + c3;
  s.cse_global <- s.cse_global + c3b;
  s.eliminated <- s.eliminated + c4;
  s.simplified <- s.simplified + c5;
  c1 + c2 + c3 + c3b + c4 + c5

let cleanup_fixpoint ?(verify_each = false) (f : Ir.func) (s : stats) =
  let rec loop budget =
    if budget > 0 then begin
      s.rounds <- s.rounds + 1;
      if cleanup_round ~verify_each f s > 0 then loop (budget - 1)
    end
  in
  loop max_rounds

let optimize ?(level = 2) ?(verify_each = false) (f : Ir.func) : stats =
  let s = empty_stats () in
  verify_after ~verify_each "lower" f;
  if level >= 1 then begin
    cleanup_fixpoint ~verify_each f s;
    if level >= 2 then begin
      s.if_converted <- s.if_converted + Ifconv.run f;
      s.work <- s.work + Ir.instr_count f;
      verify_after ~verify_each "ifconv" f;
      cleanup_fixpoint ~verify_each f s;
      s.hoisted <- s.hoisted + Licm.run f;
      s.work <- s.work + (2 * Ir.instr_count f);
      verify_after ~verify_each "licm" f;
      s.reduced <- s.reduced + Strength.run f;
      s.work <- s.work + Ir.instr_count f;
      verify_after ~verify_each "strength" f;
      cleanup_fixpoint ~verify_each f s;
      if level >= 3 then begin
        s.unrolled <- s.unrolled + Unroll.run f;
        s.work <- s.work + (2 * Ir.instr_count f);
        verify_after ~verify_each "unroll" f;
        cleanup_fixpoint ~verify_each f s
      end
    end
  end;
  s

let optimize_section ?(level = 2) ?(verify_each = false) (sec : Ir.section) :
    stats list =
  List.map (optimize ~level ~verify_each) sec.funcs
