(* Backward liveness dataflow over virtual registers, on word bitsets.
   Drives dead-code elimination, the loop-invariant safety checks and,
   in the back end, live-interval construction and block-local renaming.

   A set is an [int array] with one bit per register, [Sys.int_size]
   bits to a word.  The solver iterates to the least fixpoint, so the
   sets do not depend on the visiting order. *)

type set = int array

let bits = Sys.int_size
let create nregs : set = Array.make ((nregs + bits - 1) / bits) 0

let mem (s : set) r = s.(r / bits) land (1 lsl (r mod bits)) <> 0

let add (s : set) r =
  let w = r / bits in
  s.(w) <- s.(w) lor (1 lsl (r mod bits))

let remove (s : set) r =
  let w = r / bits in
  s.(w) <- s.(w) land lnot (1 lsl (r mod bits))

let iter f (s : set) =
  Array.iteri
    (fun w word ->
      let word = ref word and r = ref (w * bits) in
      while !word <> 0 do
        if !word land 1 <> 0 then f !r;
        word := !word lsr 1;
        incr r
      done)
    s

type t = { live_in : set array; live_out : set array }

let compute (f : Ir.func) : t =
  let n = Array.length f.blocks and nregs = Ir.num_regs f in
  let words = (nregs + bits - 1) / bits in
  let use = Array.init n (fun _ -> create nregs) in
  let def = Array.init n (fun _ -> create nregs) in
  Array.iteri
    (fun i (b : Ir.block) ->
      (* Forward: an upward-exposed use is one no earlier def covers. *)
      let use = use.(i) and def = def.(i) in
      let use_reg r = if not (mem def r) then add use r in
      List.iter
        (fun instr ->
          Ir.iter_uses use_reg instr;
          Option.iter (add def) (Ir.def_of instr))
        b.instrs;
      List.iter use_reg (Ir.term_uses b.term))
    f.blocks;
  let live_in = Array.init n (fun _ -> create nregs) in
  let live_out = Array.init n (fun _ -> create nregs) in
  let succs = Array.map (fun (b : Ir.block) -> Array.of_list (Ir.successors b.term)) f.blocks in
  let changed = ref true in
  while !changed do
    changed := false;
    (* Reverse block order approximates postorder. *)
    for i = n - 1 downto 0 do
      let out = live_out.(i) and inn = live_in.(i) and use = use.(i) and def = def.(i) in
      let ss = succs.(i) in
      for w = 0 to words - 1 do
        let o = ref 0 in
        for k = 0 to Array.length ss - 1 do
          o := !o lor live_in.(ss.(k)).(w)
        done;
        let o = !o in
        let x = use.(w) lor (o land lnot def.(w)) in
        if o <> out.(w) || x <> inn.(w) then begin
          out.(w) <- o;
          inn.(w) <- x;
          changed := true
        end
      done
    done
  done;
  { live_in; live_out }

(* The recursion visits the block from its end without reversing it. *)
let sweep t (f : Ir.func) i visit =
  let b = f.blocks.(i) in
  let live = Array.copy t.live_out.(i) in
  List.iter (add live) (Ir.term_uses b.term);
  let rec back = function
    | [] -> ()
    | instr :: rest ->
      back rest;
      visit instr live;
      Option.iter (remove live) (Ir.def_of instr);
      Ir.iter_uses (add live) instr
  in
  back b.instrs
