(** Directed graphs over nodes [0..n-1], given as one adjacency list per
    node: the strongly connected components, antichain levels and
    reachability that {!Depan}, {!Modan} and the task scheduler all
    derive their dependence views from. *)

val sccs : int list array -> int array
(** Tarjan's strongly connected components of a successor array: the
    SCC id of every node.  Roots are tried in ascending index and
    successors in list order, so ids depend only on the input.  Ids
    are dense from 0 and reverse-topological: an edge [u -> v] between
    different SCCs has [scc.(v) < scc.(u)], so callee (provider) SCCs
    come first. *)

val members : int array -> int list array
(** The member table of an {!sccs} result: entry [s] lists the nodes of
    SCC [s] in ascending index. *)

val levels : int list array -> int list list
(** Antichain levels of a DAG given as a predecessor array: a node's
    level is the length of the longest path that ends at it.  Each
    level lists its members in ascending index; empty levels are
    dropped.  Nodes of one level are pairwise unordered. *)

val reach : int list array -> int -> bool array
(** [reach succs v]: the nodes reachable from [v] along successor
    edges, [v] itself included. *)

val dependent_pairs : int list array -> int
(** The number of ordered pairs [(u, v)], [u <> v], with a path from
    [u] to [v].  On a DAG this is the number of unordered pairs that
    must not run in parallel. *)

val licensed_fraction : int list array -> float
(** Fraction of unordered node pairs of a DAG with no path either way —
    the pairs a dependence-aware schedule may run in parallel; [1.0]
    below two nodes. *)

val solve :
  ?widen:int * ('a -> 'a -> 'a) ->
  int list array ->
  equal:('a -> 'a -> bool) ->
  init:(int -> 'a) ->
  step:((int -> 'a) -> int -> 'a) ->
  'a array * int
(** [solve succs ~equal ~init ~step]: the interprocedural summary
    fixpoint every analyzer closes over its call graph.  Node [i]
    starts at [init i]; [step get i] recomputes it from the current
    values ([get j] for any [j]; [succs.(i)] are the ones it reads).
    SCCs are visited bottom-up, callees first, and each is swept in
    ascending member order, updating in place, until a sweep changes
    nothing.  With [~widen:(k, w)], from an SCC's [(k+1)]-th sweep on a
    value that still moves becomes [w old fresh].  A singleton SCC
    without a self-loop reads only final values, so it is stepped once.
    Returns the values and the total number of sweeps until each SCC's
    last sweep changed nothing, counting the confirming sweep a
    singleton's moved value would need. *)

val stable_topo : int list array -> int list
(** A topological order of a predecessor array that always emits the
    smallest-index ready node, so an order that already respects every
    edge comes back unchanged.  A residual cycle is broken at its
    smallest unemitted node, keeping the function total. *)
