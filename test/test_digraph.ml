(* Analysis.Digraph against the copies it replaced (digraph_oracle.ml):
   the same SCC numbering on graphs with cycles, and the same levels,
   reachability and dependent-pair counts on DAGs whose edges all point
   from a lower index to a higher one, the shape every caller's rank
   order gives. *)

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
      ]
      @ List.map QCheck_alcotest.to_alcotest [ prop_sccs; prop_levels; prop_reach ] );
  ]
