(* Data-dependence graphs over the operations of one basic block.

   Edges carry (delay, distance): a dependence from [a] to [b] with
   distance d means instance (b, iteration k+d) must issue no earlier
   than issue(a, iteration k) + delay.  Distance-0 edges order
   operations of one iteration (used by both schedulers); distance-1
   edges wrap around the loop (used by the modulo scheduler and valid
   for any pair, in either program order, including self-edges).

   Delay rules (results are written at issue + latency and read at
   issue; local-memory stores are visible one cycle after issue, loads
   read at issue; queue operations act in issue order):
     true (def -> use)        latency(def)
     anti (use -> def)        1 - latency(def')   (write lands after read)
     output (def -> def)      latency(first) - latency(second) + 1
     store -> load            1
     load -> store            0
     store -> store           1
     queue op -> queue op     1                    (strict queue order)

   Each operation is reduced once to a footprint (what it defines,
   reads, touches and how long it takes).  [build], the modulo
   scheduler's loop graph, pairs an op only with the ops that share a
   register, an array or the queues with it; [straight], the list
   scheduler's graph, keeps only each op's nearest accesses.  Both cost
   what the dependences cost rather than all pairs. *)

open Midend

type t = {
  ops : Ir.instr array;
  succs : (int * int * int) list array; (* dst, delay, dist *)
  preds : (int * int * int) list array; (* src, delay, dist *)
}

type footprint = {
  def : int; (* defined register, -1 for none *)
  uses : int array; (* registers read *)
  arr : string option; (* local-memory array touched *)
  store : bool;
  qio : bool;
  lat : int;
}

let footprint (op : Ir.instr) : footprint =
  let arr, store =
    match op with
    | Ir.Load (_, a, _) -> (Some a, false)
    | Ir.Store (a, _, _) -> (Some a, true)
    | _ -> (None, false)
  in
  {
    def = (match Ir.def_of op with Some d -> d | None -> -1);
    uses = Array.of_list (Ir.uses_of op);
    arr;
    store;
    qio = (match op with Ir.Send _ | Ir.Recv _ -> true | _ -> false);
    lat = Machine.latency op;
  }

(* Filled from a constant rather than by [Array.map]: a long array
   filled with a young footprint forces a minor collection. *)
let footprints (ops : Ir.instr array) : footprint array =
  let none = { def = -1; uses = [||]; arr = None; store = false; qio = false; lat = 0 } in
  let fps = Array.make (Array.length ops) none in
  Array.iteri (fun i op -> fps.(i) <- footprint op) ops;
  fps

let independent = min_int

let reads r (f : footprint) =
  let rec go k = k < Array.length f.uses && (f.uses.(k) = r || go (k + 1)) in
  go 0

(* Maximum delay of the hazards between [a] (first) and [b] (second);
   [independent] when there is none.  Allocates nothing. *)
let hazard (a : footprint) (b : footprint) : int =
  let d = ref independent in
  if a.def >= 0 then begin
    if reads a.def b then d := a.lat; (* true *)
    if a.def = b.def then d := max !d (a.lat - b.lat + 1) (* output *)
  end;
  if b.def >= 0 && reads b.def a then d := max !d (1 - b.lat); (* anti *)
  (match a.arr with
  | Some x -> (
    match b.arr with
    | Some y when String.equal x y ->
      if a.store then d := max !d 1 (* store -> load/store *)
      else if b.store then d := max !d 0 (* load -> store *)
    | _ -> ())
  | None -> ());
  if a.qio && b.qio then d := max !d 1;
  !d

let max_reg fps = Array.fold_left (fun acc f -> Array.fold_left max (max acc f.def) f.uses) (-1) fps

(* For each op [i], the ops that may have a hazard with it in either
   order, in ascending index order: writers of what [i] reads or
   writes, readers of what [i] writes, the stores (or, for a store,
   every access) of its array, and every queue op if [i] is one.  The
   outer array is filled from a constant, as in [footprints]. *)
let partners (fps : footprint array) : int array array =
  let n = Array.length fps in
  let writers = Array.make (max_reg fps + 1) [] in
  let readers = Array.make (max_reg fps + 1) [] in
  let accesses = Hashtbl.create 8 in (* array -> (every access, stores) *)
  let queue = ref [] in
  for i = n - 1 downto 0 do
    let f = fps.(i) in
    if f.def >= 0 then writers.(f.def) <- i :: writers.(f.def);
    Array.iter (fun r -> readers.(r) <- i :: readers.(r)) f.uses;
    (match f.arr with
    | Some a ->
      let all, stores = Option.value ~default:([], []) (Hashtbl.find_opt accesses a) in
      Hashtbl.replace accesses a (i :: all, if f.store then i :: stores else stores)
    | None -> ());
    if f.qio then queue := i :: !queue
  done;
  let stamp = Array.make n (-1) in
  let buf = Array.make n 0 in
  let of_op i =
    let k = ref 0 in
    let add =
      List.iter (fun j ->
          if stamp.(j) <> i then begin
            stamp.(j) <- i;
            buf.(!k) <- j;
            incr k
          end)
    in
    let f = fps.(i) in
    Array.iter (fun r -> add writers.(r)) f.uses;
    if f.def >= 0 then begin
      add writers.(f.def);
      add readers.(f.def)
    end;
    (match f.arr with
    | Some a ->
      let all, stores = Hashtbl.find accesses a in
      add (if f.store then all else stores)
    | None -> ());
    if f.qio then add !queue;
    let found = Array.sub buf 0 !k in
    Array.sort Int.compare found;
    found
  in
  let all = Array.make n [||] in
  for i = 0 to n - 1 do
    all.(i) <- of_op i
  done;
  all

(* A graph with no edges yet (filled from the constant [[]], as in
   [footprints]), and [edge], which conses one edge onto its source's
   [succs] and its destination's [preds]. *)
let empty ops =
  let n = Array.length ops in
  { ops; succs = Array.make n []; preds = Array.make n [] }

let edge g ~src ~dst ~delay ~dist =
  g.succs.(src) <- (dst, delay, dist) :: g.succs.(src);
  g.preds.(dst) <- (src, delay, dist) :: g.preds.(dst)

(* The loop graph: every hazard pair at distance 0, and every pair at
   distance 1. *)
let build (ops : Ir.instr array) : t =
  let n = Array.length ops in
  let fps = footprints ops in
  let partners = partners fps in
  let g = empty ops in
  let scan ~dist =
    for i = 0 to n - 1 do
      Array.iter
        (fun j ->
          if dist = 1 || j > i then begin
            let delay = hazard fps.(i) fps.(j) in
            if delay <> independent then edge g ~src:i ~dst:j ~delay ~dist
          end)
        partners.(i)
    done
  in
  scan ~dist:0;
  (* (i, iter k) happens before (j, iter k+1) for every pair. *)
  scan ~dist:1;
  g

(* The straight-line graph: an edge into op j from the last writer of
   each register j reads or writes, from the readers since that writer
   of the register j defines, from the last store of j's array (and,
   for a store, the loads since it), and from the previous queue op.
   Any other hazard pair (a, b) is implied by a chain of kept edges
   a -> c -> ... -> b whose raw delays sum to at least its own: output
   delays lat(w) - lat(w') + 1 between successive writers telescope, so
   a true dependence past later writers sums to at least lat(a) and an
   anti dependence to at least 1 - lat(b); stores and queue ops chain
   with delay 1, a load reaches the next store with delay 0.  So the
   chain bounds a's height and b's earliest cycle as the pair did, and
   a issues before the chain's last op, so b is released in the same
   cycle: the list schedule, attempts included, is the all-pairs one. *)
let straight (ops : Ir.instr array) : t =
  let n = Array.length ops in
  let fps = footprints ops in
  let nregs = max_reg fps + 1 in
  let last_writer = Array.make nregs (-1) in
  let readers = Array.make nregs [] in (* since the last writer *)
  let mem = Hashtbl.create 8 in (* array -> last store, loads since *)
  let last_queue = ref (-1) in
  let stamp = Array.make n (-1) in
  let g = empty ops in
  for j = 0 to n - 1 do
    let f = fps.(j) in
    let add i =
      if i >= 0 && stamp.(i) <> j then begin
        stamp.(i) <- j;
        let delay = hazard fps.(i) f in
        if delay <> independent then edge g ~src:i ~dst:j ~delay ~dist:0
      end
    in
    Array.iter (fun r -> add last_writer.(r)) f.uses;
    if f.def >= 0 then begin
      add last_writer.(f.def);
      List.iter add readers.(f.def)
    end;
    Array.iter (fun r -> readers.(r) <- j :: readers.(r)) f.uses;
    if f.def >= 0 then begin
      last_writer.(f.def) <- j;
      readers.(f.def) <- []
    end;
    Option.iter
      (fun a ->
        let last, loads = Option.value ~default:(-1, []) (Hashtbl.find_opt mem a) in
        add last;
        if f.store then List.iter add loads;
        Hashtbl.replace mem a (if f.store then (j, []) else (last, j :: loads)))
      f.arr;
    if f.qio then begin
      add !last_queue;
      last_queue := j
    end
  done;
  g

(* Critical-path height over distance-0 edges: the scheduling priority.
   The height of an op is its latency plus the maximum height reachable
   through its same-iteration successors.  Distance-0 edges all go
   forward in program order, so the recursion cannot cycle. *)
let heights (g : t) : int array =
  let n = Array.length g.ops in
  let height = Array.make n (-1) in
  let rec compute i =
    if height.(i) >= 0 then height.(i)
    else begin
      let best = ref (Machine.latency g.ops.(i)) in
      List.iter
        (fun (j, delay, dist) ->
          if dist = 0 then best := max !best (delay + compute j))
        g.succs.(i);
      height.(i) <- !best;
      !best
    end
  in
  for i = 0 to n - 1 do
    ignore (compute i)
  done;
  height
