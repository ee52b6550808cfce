(* Full unrolling of constant-trip innermost loops.

   Handles the counted loops {!Counted.recognize} finds (the shape
   produced by lowering a [for] loop) whose bounds are constant after
   constant propagation.  The body block is replicated trip-count times
   (keeping the increments, so [v]'s final value is preserved) and the
   loop becomes straight-line code.  Registers need no renaming: the
   copies execute sequentially with exactly the per-iteration register
   semantics of the original loop. *)

let max_trip = 16
let max_growth = 512

let try_unroll (f : Ir.func) (l : Loops.loop) : bool =
  match Counted.recognize f l with
  | None -> false
  | Some c -> (
    let body = f.blocks.(c.body_block).instrs in
    match Counted.trip c with
    | Some trip when trip <= max_trip && trip * List.length body <= max_growth ->
      (if trip = 0 then
         f.blocks.(c.header) <- { Ir.instrs = []; term = Ir.Jump c.exit }
       else begin
         let copies = List.concat (List.init trip (fun _ -> body)) in
         f.blocks.(c.header) <- { Ir.instrs = []; term = Ir.Jump c.body_block };
         f.blocks.(c.body_block) <- { Ir.instrs = copies; term = Ir.Jump c.exit }
       end);
      true
    | _ -> false)

let run (f : Ir.func) : int =
  let unrolled = ref 0 in
  let rec go budget =
    if budget > 0 then begin
      let loops = Loops.innermost (Loops.find f) in
      if List.exists (fun l -> try_unroll f l) loops then begin
        incr unrolled;
        ignore (Cfg.simplify f);
        go (budget - 1)
      end
    end
  in
  go 8;
  !unrolled
