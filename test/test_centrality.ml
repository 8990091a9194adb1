open Test_helpers

let check_float = Alcotest.(check (float 1e-9))

let test_closeness_star () =
  let c = Centrality.closeness (Generators.star 5) in
  check_float "center" 1.0 c.(0);
  check_float "leaf" (4.0 /. 7.0) c.(1)

let test_closeness_disconnected () =
  let c = Centrality.closeness (Graph.of_edges 3 [ (0, 1) ]) in
  check_float "unreaching vertex" 0.0 c.(0)

let test_harmonic () =
  let c = Centrality.harmonic (Generators.star 4) in
  check_float "center" 3.0 c.(0);
  check_float "leaf" (1.0 +. (2.0 /. 2.0)) c.(1);
  (* harmonic handles disconnection gracefully *)
  let d = Centrality.harmonic (Graph.of_edges 3 [ (0, 1) ]) in
  check_float "isolated" 0.0 d.(2);
  check_float "pair" 1.0 d.(0)

let test_degree () =
  let c = Centrality.degree (Generators.star 5) in
  check_float "center" 1.0 c.(0);
  check_float "leaf" 0.25 c.(1)

let test_eccentricity () =
  let c = Centrality.eccentricity (Generators.path 5) in
  check_float "middle" 0.5 c.(2);
  check_float "end" 0.25 c.(0)

let test_betweenness_star () =
  let b = Centrality.betweenness (Generators.star 5) in
  (* center lies on all C(4,2) = 6 leaf pairs *)
  check_float "center" 6.0 b.(0);
  check_float "leaf" 0.0 b.(1)

let test_betweenness_path () =
  let b = Centrality.betweenness (Generators.path 5) in
  (* vertex 1 lies on pairs (0,2),(0,3),(0,4) = 3; vertex 2 on (0,3),(0,4),
     (1,3),(1,4) = 4 *)
  check_float "end" 0.0 b.(0);
  check_float "v1" 3.0 b.(1);
  check_float "middle" 4.0 b.(2)

let test_betweenness_cycle_even () =
  (* C4: vertex v is on the unique... pairs of opposite vertices have two
     shortest paths, each middle vertex carries 1/2 *)
  let b = Centrality.betweenness (Generators.cycle 4) in
  Array.iter (fun x -> check_float "uniform" 0.5 x) b

let test_betweenness_complete () =
  let b = Centrality.betweenness (Generators.complete 5) in
  Array.iter (fun x -> check_float "no intermediaries" 0.0 x) b

let test_most_central_and_spread () =
  let c = [| 0.5; 2.0; 1.0 |] in
  check_int "argmax" 1 (Centrality.most_central c);
  check_float "spread" 1.5 (Centrality.spread c);
  check_float "flat" 0.0 (Centrality.spread [| 3.0; 3.0 |])

let test_vertex_transitive_flat =
  qcheck ~count:20 "vertex-transitive families are centrality-flat"
    QCheck2.Gen.(int_range 3 9) (fun n ->
      let g = Generators.cycle n in
      Centrality.spread (Centrality.betweenness g) < 1e-9
      && Centrality.spread (Centrality.closeness g) < 1e-9)

let test_betweenness_pair_count =
  (* sum of betweenness = sum over pairs of (internal vertices weighted by
     path fractions) = Σ_{s<t} (avg path length - 1) *)
  qcheck ~count:40 "sum of betweenness consistent with distances"
    (gen_tree ~min_n:2 ~max_n:12) (fun g ->
      (* trees: unique paths, so total betweenness = Σ_{s<t} (d(s,t) - 1) *)
      let b = Centrality.betweenness g in
      let total = Array.fold_left ( +. ) 0.0 b in
      match Metrics.wiener_index g with
      | Some w ->
        let n = Graph.n g in
        let pairs = n * (n - 1) / 2 in
        abs_float (total -. float_of_int (w - pairs)) < 1e-6
      | None -> false)

let test_star_center_most_between =
  qcheck ~count:30 "sum equilibria from tree dynamics: center dominates"
    (gen_tree ~min_n:4 ~max_n:12) (fun g ->
      let r = Dynamics.run (Dynamics.default_config Game.Sum) g in
      r.Dynamics.outcome <> Dynamics.Converged
      ||
      let b = Centrality.betweenness r.Dynamics.final in
      (* the star's center is the unique positive-betweenness vertex *)
      let center = Centrality.most_central b in
      Graph.degree r.Dynamics.final center = Graph.n g - 1)

let suite =
  [
    case "closeness: star" test_closeness_star;
    case "closeness: disconnected" test_closeness_disconnected;
    case "harmonic" test_harmonic;
    case "degree" test_degree;
    case "eccentricity" test_eccentricity;
    case "betweenness: star" test_betweenness_star;
    case "betweenness: path" test_betweenness_path;
    case "betweenness: even cycle" test_betweenness_cycle_even;
    case "betweenness: complete" test_betweenness_complete;
    case "argmax / spread" test_most_central_and_spread;
    test_vertex_transitive_flat;
    test_betweenness_pair_count;
    test_star_center_most_between;
  ]
