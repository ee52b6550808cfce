(* Control-flow-graph utilities over [Ir.func]: successor/predecessor
   maps, reachability, unreachable-block elimination and jump threading.
   Passes renumber blocks, so indices are only stable between passes. *)

let successors (f : Ir.func) : int list array =
  Array.map (fun (b : Ir.block) -> Ir.successors b.term) f.blocks

let predecessors (f : Ir.func) : int list array =
  let preds = Array.make (Array.length f.blocks) [] in
  Array.iteri
    (fun i (b : Ir.block) ->
      List.iter (fun s -> preds.(s) <- i :: preds.(s)) (Ir.successors b.term))
    f.blocks;
  Array.map List.rev preds

let reachable (f : Ir.func) : bool array =
  let n = Array.length f.blocks in
  let seen = Array.make n false in
  let rec visit i =
    if not seen.(i) then begin
      seen.(i) <- true;
      List.iter visit (Ir.successors f.blocks.(i).term)
    end
  in
  if n > 0 then visit Ir.entry_block;
  seen

let map_term_labels g = function
  | Ir.Jump l -> Ir.Jump (g l)
  | Ir.Branch (c, t, e) -> Ir.Branch (c, g t, g e)
  | Ir.Ret v -> Ir.Ret v

(* Remove unreachable blocks and renumber.  Returns the number of blocks
   removed. *)
let remove_unreachable (f : Ir.func) : int =
  let seen = reachable f in
  let n = Array.length f.blocks in
  let alive = Array.to_list (Array.mapi (fun i s -> (i, s)) seen) in
  let kept = List.filter_map (fun (i, s) -> if s then Some i else None) alive in
  let removed = n - List.length kept in
  if removed > 0 then begin
    let remap = Array.make n (-1) in
    List.iteri (fun fresh old -> remap.(old) <- fresh) kept;
    let blocks =
      List.map
        (fun old ->
          let b = f.blocks.(old) in
          { b with Ir.term = map_term_labels (fun l -> remap.(l)) b.term })
        kept
    in
    f.blocks <- Array.of_list blocks
  end;
  removed

(* Collapse chains of empty forwarding blocks: a block consisting of a
   lone [Jump l] can be bypassed by its predecessors.  Returns the number
   of edges rewritten. *)
let thread_jumps (f : Ir.func) : int =
  let n = Array.length f.blocks in
  (* Resolve the final target of a forwarding chain, guarding against
     cycles of empty blocks. *)
  let resolve l =
    let rec chase l hops =
      if hops > n then l
      else
        match f.blocks.(l) with
        | { Ir.instrs = []; term = Ir.Jump next } when next <> l ->
          chase next (hops + 1)
        | _ -> l
    in
    chase l 0
  in
  let changed = ref 0 in
  Array.iteri
    (fun i (b : Ir.block) ->
      let rewrite l =
        let target = resolve l in
        if target <> l then incr changed;
        target
      in
      let term =
        match b.term with
        | Ir.Jump l ->
          let l' = rewrite l in
          if l' = l then b.term else Ir.Jump l'
        | Ir.Branch (c, t, e) ->
          let t' = rewrite t in
          let e' = rewrite e in
          (* A branch whose arms now coincide is a jump; one whose arms
             already did is an edit of its own. *)
          if t' = e' then begin
            if t = e then incr changed;
            Ir.Jump t'
          end
          else if t' = t && e' = e then b.term
          else Ir.Branch (c, t', e')
        | Ir.Ret _ -> b.term
      in
      Ir.update_block f i b.instrs term)
    f.blocks;
  !changed

(* Merge a block into its unique predecessor when that predecessor jumps
   straight to it.  Returns the number of merges. *)
let merge_straightline (f : Ir.func) : int =
  let merged = ref 0 in
  let continue_ = ref true in
  while !continue_ do
    continue_ := false;
    let preds = predecessors f in
    let n = Array.length f.blocks in
    (try
       for i = 0 to n - 1 do
         match f.blocks.(i).term with
         | Ir.Jump j
           when j <> i && j <> Ir.entry_block
                && (match preds.(j) with [ p ] -> p = i | _ -> false)
                && not (List.mem j (Ir.successors f.blocks.(j).term)) ->
           let a = f.blocks.(i) and b = f.blocks.(j) in
           f.blocks.(i) <-
             { Ir.instrs = a.instrs @ b.instrs; term = b.term };
           f.blocks.(j) <- { Ir.instrs = []; term = Ir.Jump i };
           (* The forwarding stub left at [j] is unreachable now. *)
           ignore (remove_unreachable f);
           incr merged;
           continue_ := true;
           raise Exit
         | _ -> ()
       done
     with Exit -> ())
  done;
  !merged

(* Normalization run between optimization passes. *)
let simplify (f : Ir.func) : int =
  let a = thread_jumps f in
  let b = remove_unreachable f in
  let c = merge_straightline f in
  a + b + c

(* Reverse postorder of the reachable blocks: the iteration order used by
   forward dataflow problems. *)
let reverse_postorder (f : Ir.func) : int list =
  let n = Array.length f.blocks in
  let seen = Array.make n false in
  let order = ref [] in
  let rec visit i =
    if not seen.(i) then begin
      seen.(i) <- true;
      List.iter visit (Ir.successors f.blocks.(i).term);
      order := i :: !order
    end
  in
  if n > 0 then visit Ir.entry_block;
  !order
