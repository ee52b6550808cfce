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

(* The change stamp.  Every pass that reports a change bumps [stamp];
   every cleanup pass that reports none records the stamp it saw in
   [quiet].  A pass that reports no change leaves the IR as it found
   it, so while the stamp is unchanged a quiet cleanup pass would find
   the same IR and report nothing again: it is skipped.  A skipped pass
   still charges the function's size, and with [verify_each] the
   verifier still runs after it, so the work, the stats and what the
   verifier sees are those of running it. *)
type run = {
  f : Ir.func;
  s : stats;
  verify_each : bool;
  mutable stamp : int;
  quiet : int array; (* per cleanup pass *)
}

let note r changes =
  if changes > 0 then r.stamp <- r.stamp + 1;
  changes

let charge r ?(times = 1) pass =
  r.s.work <- r.s.work + (times * Ir.instr_count r.f);
  verify_after ~verify_each:r.verify_each pass r.f

let cleanup_passes =
  [|
    ("constfold", Constfold.run);
    ("lvn", Lvn.run);
    ("gcp", Gcp.run);
    ("gcse", Gcse.run);
    ("dce", Dce.run);
    ("cfg-simplify", Cfg.simplify);
  |]

let cleanup_round r : int =
  let counts =
    Array.mapi
      (fun k (pass, run) ->
        let c =
          if r.quiet.(k) = r.stamp then 0
          else
            let c = note r (run r.f) in
            if c = 0 then r.quiet.(k) <- r.stamp;
            c
        in
        charge r pass;
        c)
      cleanup_passes
  in
  let s = r.s in
  s.folded <- s.folded + counts.(0);
  s.numbered <- s.numbered + counts.(1);
  s.propagated <- s.propagated + counts.(2);
  s.cse_global <- s.cse_global + counts.(3);
  s.eliminated <- s.eliminated + counts.(4);
  s.simplified <- s.simplified + counts.(5);
  Array.fold_left ( + ) 0 counts

let cleanup_fixpoint r =
  let rec loop budget =
    if budget > 0 then begin
      r.s.rounds <- r.s.rounds + 1;
      if cleanup_round r > 0 then loop (budget - 1)
    end
  in
  loop max_rounds

(* A loop pass: its changes bump the stamp; [times] scales its charge. *)
let loop_pass r ?times pass run =
  let c = note r (run r.f) in
  charge r ?times pass;
  c

let optimize ?(level = 2) ?(verify_each = false) (f : Ir.func) : stats =
  let s = empty_stats () in
  verify_after ~verify_each "lower" f;
  let r =
    {
      f;
      s;
      verify_each;
      stamp = 0;
      quiet = Array.make (Array.length cleanup_passes) (-1);
    }
  in
  if level >= 1 then begin
    cleanup_fixpoint r;
    if level >= 2 then begin
      s.if_converted <- s.if_converted + loop_pass r "ifconv" Ifconv.run;
      cleanup_fixpoint r;
      s.hoisted <- s.hoisted + loop_pass r ~times:2 "licm" Licm.run;
      s.reduced <- s.reduced + loop_pass r "strength" Strength.run;
      cleanup_fixpoint r;
      if level >= 3 then begin
        s.unrolled <- s.unrolled + loop_pass r ~times:2 "unroll" Unroll.run;
        cleanup_fixpoint r
      end
    end
  end;
  s

let optimize_section ?(level = 2) ?(verify_each = false) (sec : Ir.section) :
    stats list =
  List.map (optimize ~level ~verify_each) sec.funcs
