(* One dependence-edge model against the code it replaced
   (edges_oracle.ml):
   - per section, the plan's classified edge list projects onto exactly
     the old three lists (all edges, the speculative subset, its hot
     subset) and their old proven difference — on generated modules
     and on the composed project plans of every shape;
   - the shared coupling enumerator yields the same edges and reasons
     as Depan's all-pairs loop and as compose's writers/accessors
     block. *)

module D = Analysis.Depan
module O = Edges_oracle
open Parallel_cc

(* --- the classified list projects onto the old lists --- *)

let where keep (plan_edges : (string * (string * string * Plan.edge_class) list) list) =
  let plan = { Plan.tasks_per_section = []; edges = plan_edges } in
  List.map (fun (s, _) -> (s, Plan.section_edges ~keep plan s)) plan_edges

let all _ = true
let speculative c = c <> Plan.Proven

(* A module of generated functions sharing one section, renamed apart. *)
let random_module seed k =
  let funcs =
    List.init k (fun i ->
        {
          (W2.Gen.random_function ~allow_channels:true ~seed:(seed + (7919 * i))
             ~size:(3 + ((seed + i) mod 11))
             ())
          with
          W2.Ast.fname = Printf.sprintf "f%d" i;
        })
  in
  let m = W2.Gen.module_of_function (List.hd funcs) in
  {
    m with
    W2.Ast.sections =
      List.map (fun s -> { s with W2.Ast.funcs = funcs }) m.W2.Ast.sections;
  }

(* (label, module, max_tracked, absint) *)
let arb_analyzed =
  let open QCheck.Gen in
  let case =
    int_range 0 3 >>= fun kind ->
    int_range 2 4 >>= fun k ->
    int_range 1 10_000 >>= fun seed ->
    int_range 1 8 >>= fun cap ->
    bool >|= fun absint ->
    match kind with
    | 0 -> ("random", random_module seed k, 64, absint)
    | 1 ->
      ( "speculative",
        W2.Gen.speculative_program ~workers:k ~fanout:(2 + (seed mod 5)) (),
        cap,
        absint )
    | 2 -> ("racy", W2.Gen.racy_program ~scatters:k (), cap, absint)
    | _ -> ("partitioned", W2.Gen.partitioned_program ~workers:k (), cap, absint)
  in
  QCheck.make
    ~print:(fun (label, _, cap, absint) ->
      Printf.sprintf "%s max_tracked=%d absint=%b" label cap absint)
    case

let prop_classified_projects =
  QCheck.Test.make ~count:60
    ~name:"classified edges project onto the old func/spec/hot lists"
    arb_analyzed
    (fun (_, m, max_tracked, absint) ->
      W2.Semcheck.check_module_exn m;
      let t = D.analyze ~max_tracked ~absint m in
      let uncapped = D.analyze ~max_tracked:max_int ~absint:false m in
      let edges = Plan.edges_of t in
      let func_deps = O.deps_of t and spec_edges = O.spec_deps_of t in
      where all edges = func_deps
      && where speculative edges = spec_edges
      && where (( = ) Plan.Hot) edges = O.hot_deps_of t ~uncapped
      && where (( = ) Plan.Proven) edges = O.proven_deps ~func_deps ~spec_edges)

(* The composed project plans.  The old hot list kept the merged
   analysis's order, the new one keeps the composed order, so the hot
   subset is compared as a set. *)
let prop_link_plan_projects =
  QCheck.Test.make ~count:6
    ~name:"link_plan's classified edges project onto the old lists"
    QCheck.(pair (int_range 0 2) (int_range 4 8))
    (fun (si, modules) ->
      let shape = List.nth W2.Gen.all_shapes si in
      let mw, link = Experiment.link_program_work ~shape ~modules () in
      let merged = mw.Driver.Compile.mw_analysis in
      let uncapped =
        D.analyze ~max_tracked:max_int ~absint:false
          (Analysis.Modan.inline_project
             (W2.Gen.project_program ~modules ~seed:1 ~shape ()))
      in
      let deps, specs, hot =
        O.link_plan_lists ~func_deps:(O.deps_of merged)
          ~spec_edges:(O.spec_deps_of merged)
          ~hot_edges:(O.hot_deps_of merged ~uncapped)
          link
      in
      let edges = (Experiment.link_plan mw link).Plan.edges in
      let sorted = List.map (fun (s, es) -> (s, List.sort compare es)) in
      where all edges = deps
      && where speculative edges = specs
      && sorted (where (( = ) Plan.Hot) edges) = sorted hot)

(* --- the shared coupling enumerator --- *)

let globals = [| "a"; "b"; "c"; "d" |]

let gen_eff =
  let open QCheck.Gen in
  let set = array_size (return (Array.length globals)) bool >|= fun bits ->
    D.SS.of_list
      (List.filteri (fun i _ -> bits.(i)) (Array.to_list globals))
  in
  set >>= fun r ->
  set >>= fun w ->
  quad bool bool bool bool >|= fun (sx, sy, rx, ry) ->
  { D.eff_empty with r; w; sx; sy; rx; ry }

(* Effects, a rank permutation, and per-node module and augmented
   flags for compose's same-module filter. *)
let arb_effs =
  let open QCheck.Gen in
  QCheck.make
    ~print:(fun (effs, rank, fmod, aug) ->
      String.concat "; "
        (Array.to_list
           (Array.mapi
              (fun i (e : D.eff) ->
                Printf.sprintf "%d:r{%s}w{%s}%s%s%s%s rank%d m%d%s" i
                  (String.concat "," (D.SS.elements e.r))
                  (String.concat "," (D.SS.elements e.w))
                  (if e.sx then " sx" else "") (if e.sy then " sy" else "")
                  (if e.rx then " rx" else "") (if e.ry then " ry" else "")
                  rank.(i) fmod.(i) (if aug.(i) then " aug" else ""))
              effs)))
    ( int_range 0 9 >>= fun n ->
      array_size (return n) gen_eff >>= fun effs ->
      shuffle_l (List.init n Fun.id) >>= fun rank ->
      let rank = Array.of_list rank in
      array_size (return n) (int_range 0 2) >>= fun fmod ->
      array_size (return n) bool >|= fun aug -> (effs, rank, fmod, aug) )

let prop_enumerator_depan =
  QCheck.Test.make ~count:500 ~name:"add_couplings = Depan's all-pairs loop"
    arb_effs
    (fun (effs, rankpos, _, _) ->
      let acc = D.edge_acc ~rank:(Array.get rankpos) in
      D.add_couplings acc effs
        ~global:(fun g -> D.Global_conflict g)
        ~channel:(fun c -> D.Channel_pair c);
      D.acc_edges acc ~key:Fun.id = O.depan_couplings ~rankpos effs)

let prop_enumerator_modan =
  QCheck.Test.make ~count:500
    ~name:"add_couplings = compose's writers/accessors block" arb_effs
    (fun (effs, _, fmod, aug) ->
      let consider a b = fmod.(a) <> fmod.(b) || aug.(a) || aug.(b) in
      let acc = D.edge_acc ~rank:Fun.id in
      D.add_couplings ~consider acc effs
        ~global:(fun g -> Analysis.Modan.Xmodule_global g)
        ~channel:(fun c -> Analysis.Modan.Xmodule_channel c);
      D.acc_edges acc ~key:Fun.id
      = O.modan_couplings ~consider (Array.map O.clo_of_eff effs))

let suites =
  [
    ( "edges.oracles",
      List.map QCheck_alcotest.to_alcotest
        [
          prop_classified_projects;
          prop_link_plan_projects;
          prop_enumerator_depan;
          prop_enumerator_modan;
        ] );
  ]
