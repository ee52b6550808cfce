(* Analysis.Digraph against the copies it replaced (digraph_oracle.ml):
   the same SCC numbering on graphs with cycles; the same levels,
   reachability and dependent-pair counts on DAGs whose edges all point
   from a lower index to a higher one, the shape every caller's rank
   order gives; and the same summaries (and sweep counts) as Depan's
   and Modan's hand-written closures on graphs with cycles. *)

module D = Analysis.Digraph
module O = Digraph_oracle

let print_graph (n, edges) =
  Printf.sprintf "n=%d edges=[%s]" n
    (String.concat "; " (List.map (fun (a, b) -> Printf.sprintf "%d->%d" a b) edges))

(* Any edges over 0..n-1, self-loops and duplicates included. *)
let arb_digraph =
  QCheck.make ~print:print_graph
    QCheck.Gen.(
      int_range 0 12 >>= fun n ->
      if n = 0 then return (0, [])
      else
        list_size (int_range 0 (3 * n)) (pair (int_bound (n - 1)) (int_bound (n - 1)))
        >|= fun edges -> (n, edges))

(* Forward edges only: a DAG in rank order. *)
let arb_dag =
  QCheck.make ~print:print_graph
    QCheck.Gen.(
      int_range 0 12 >>= fun n ->
      if n < 2 then return (n, [])
      else
        list_size (int_range 0 (2 * n)) (pair (int_bound (n - 1)) (int_bound (n - 1)))
        >|= fun pairs ->
        (n, List.filter_map (fun (a, b) -> if a = b then None else Some (min a b, max a b)) pairs))

let succs_of (n, edges) =
  let adj = Array.make n [] in
  List.iter (fun (a, b) -> adj.(a) <- b :: adj.(a)) edges;
  adj

let preds_of (n, edges) =
  let adj = Array.make n [] in
  List.iter (fun (a, b) -> adj.(b) <- a :: adj.(b)) edges;
  adj

let prop_sccs =
  QCheck.Test.make ~name:"sccs = Tarjan oracle, ids and numbering" ~count:500 arb_digraph
    (fun ((n, _) as g) ->
      let succs = succs_of g in
      let scc = D.sccs succs in
      (* the member table is the old per-SCC filter over all nodes *)
      let scan s = List.filter (fun v -> scc.(v) = s) (List.init n Fun.id) in
      scc = O.tarjan succs && D.members scc = Array.init (Array.length (D.members scc)) scan)

let prop_levels =
  QCheck.Test.make ~name:"levels = rank-order loop = memoised task levels" ~count:500 arb_dag
    (fun ((n, edges) as g) ->
      let levels = D.levels (preds_of g) in
      levels = O.rank_levels n edges (List.init n Fun.id)
      && levels = O.task_levels (preds_of g))

let prop_reach =
  QCheck.Test.make ~name:"reach and dependent_pairs = DFS oracles" ~count:500 arb_dag
    (fun ((n, _) as g) ->
      let succs = succs_of g in
      D.dependent_pairs succs = O.dependent_pairs succs
      && List.for_all
           (fun i ->
             let r = D.reach succs i in
             List.for_all (fun j -> r.(j) = O.reaches succs i j) (List.init n Fun.id))
           (List.init n Fun.id))

(* A digraph with, per node, a base set, a limited flag and a number
   (0-2) of calls nothing resolves. *)
let arb_summaries =
  let row f a = String.concat "; " (Array.to_list (Array.map f a)) in
  let print (g, base, lim, miss) =
    Printf.sprintf "%s base=[%s] lim=[%s] missing=[%s]" (print_graph g)
      (row (fun l -> String.concat "," (List.map string_of_int l)) base)
      (row string_of_bool lim) (row string_of_int miss)
  in
  QCheck.make ~print
    QCheck.Gen.(
      QCheck.gen arb_digraph >>= fun ((n, _) as g) ->
      array_repeat n (list_size (int_bound 3) (int_bound 9)) >>= fun base ->
      array_repeat n (int_bound 4 >|= fun k -> k = 0) >>= fun lim ->
      array_repeat n (int_bound 5 >|= fun k -> max 0 (k - 3)) >|= fun miss ->
      (g, base, lim, miss))

let prop_solve_close =
  QCheck.Test.make ~name:"solve = Depan's closure, values and sweeps" ~count:500
    arb_summaries (fun (g, base, _, _) ->
      let succs = succs_of g in
      let base = Array.map O.IS.of_list base in
      let values, sweeps =
        D.solve succs ~equal:O.IS.equal ~init:(Array.get base)
          ~step:(fun get i ->
            List.fold_left (fun acc j -> O.IS.union acc (get j)) base.(i) succs.(i))
      in
      let values', sweeps' = O.close succs ~tally:true base in
      Array.for_all2 O.IS.equal values values' && sweeps = sweeps')

(* A singleton SCC without a self-loop reads only final values, so the
   solver steps it once where the old closure swept it again to see
   nothing move; values and the sweep tally still match the closure. *)
let prop_solve_singleton_once =
  QCheck.Test.make ~name:"solve steps a non-recursive singleton once" ~count:500
    arb_summaries (fun (g, base, _, _) ->
      let succs = succs_of g in
      let base = Array.map O.IS.of_list base in
      let steps = Array.make (Array.length succs) 0 in
      let values, sweeps =
        D.solve succs ~equal:O.IS.equal ~init:(Array.get base)
          ~step:(fun get i ->
            steps.(i) <- steps.(i) + 1;
            List.fold_left (fun acc j -> O.IS.union acc (get j)) base.(i) succs.(i))
      in
      let values', sweeps' = O.close succs ~tally:true base in
      Array.for_all2 O.IS.equal values values'
      && sweeps = sweeps'
      && Array.for_all
           (function [ i ] when not (List.mem i succs.(i)) -> steps.(i) = 1 | _ -> true)
           (D.members (D.sccs succs)))

(* Compose's way: resolve every call once, start a caller with an
   unresolvable call limited, then solve over the resolved calls. *)
let prop_solve_round_robin =
  QCheck.Test.make ~name:"solve = Modan's round-robin closure" ~count:500
    arb_summaries (fun (((n, _) as g), base, lim, miss) ->
      let succs = succs_of g in
      let xcalls =
        Array.mapi (fun i js -> js @ List.init miss.(i) (fun k -> n + k)) succs
      in
      let init i = (O.IS.of_list base.(i), lim.(i) || miss.(i) > 0) in
      let values, _ =
        D.solve succs
          ~equal:(fun (a, l) (b, m) -> O.IS.equal a b && l = m)
          ~init
          ~step:(fun get i ->
            List.fold_left
              (fun (s, l) j ->
                let s', l' = get j in
                (O.IS.union s s', l || l'))
              (init i) succs.(i))
      in
      let oracle, missing =
        O.round_robin (Array.map O.IS.of_list base) lim xcalls
      in
      missing
      = List.concat (List.init n (fun i -> List.init miss.(i) (fun k -> (i, n + k))))
      && Array.for_all2
           (fun (s, l) (s', l', _) -> O.IS.equal s s' && l = l')
           values oracle
      && Array.for_all2 (fun (_, _, aug) xs -> aug = (xs <> [])) oracle xcalls)

(* Widening: a self-loop that would count to 100 one step per sweep
   jumps there on its fourth sweep, and one more sweep confirms it. *)
let test_solve_widens () =
  let values, sweeps =
    D.solve ~widen:(3, fun _ _ -> 100) [| [ 0 ] |] ~equal:( = )
      ~init:(fun _ -> 0)
      ~step:(fun get i -> min 100 (get i + 1))
  in
  Alcotest.(check (array int)) "widened value" [| 100 |] values;
  Alcotest.(check int) "sweeps" 5 sweeps

(* A two-node cycle feeding a sink: the sink's SCC is numbered first,
   the cycle shares one id, and the members table lists it in index
   order. *)
let test_sccs_pinned () =
  let scc = D.sccs [| [ 1 ]; [ 0; 2 ]; [] |] in
  Alcotest.(check (array int)) "ids" [| 1; 1; 0 |] scc;
  Alcotest.(check (array (list int))) "members" [| [ 2 ]; [ 0; 1 ] |] (D.members scc)

let test_stable_topo () =
  Alcotest.(check (list int)) "already ordered" [ 0; 1; 2 ]
    (D.stable_topo [| []; [ 0 ]; [ 1 ] |]);
  Alcotest.(check (list int)) "reversed chain" [ 2; 1; 0 ]
    (D.stable_topo [| [ 1 ]; [ 2 ]; [] |]);
  Alcotest.(check (list int)) "cycle broken at its smallest node" [ 0; 1 ]
    (D.stable_topo [| [ 1 ]; [ 0 ] |])

let suites =
  [
    ( "digraph.oracles",
      [
        Alcotest.test_case "sccs pinned" `Quick test_sccs_pinned;
        Alcotest.test_case "stable topo" `Quick test_stable_topo;
        Alcotest.test_case "solve widens" `Quick test_solve_widens;
      ]
      @ List.map QCheck_alcotest.to_alcotest
          [ prop_sccs; prop_levels; prop_reach; prop_solve_close;
            prop_solve_singleton_once; prop_solve_round_robin ] );
  ]
