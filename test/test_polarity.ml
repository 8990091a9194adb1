open Test_helpers

let test_is_prime () =
  check_true "2" (Polarity.is_prime 2);
  check_true "3" (Polarity.is_prime 3);
  check_true "13" (Polarity.is_prime 13);
  check_false "1" (Polarity.is_prime 1);
  check_false "4" (Polarity.is_prime 4);
  check_false "9" (Polarity.is_prime 9);
  check_false "0" (Polarity.is_prime 0)

let test_point_count () =
  check_int "q=2" 7 (Polarity.point_count 2);
  check_int "q=3" 13 (Polarity.point_count 3);
  check_int "q=5" 31 (Polarity.point_count 5)

let test_pg2_line_structure () =
  List.iter
    (fun q ->
      let lines = Polarity.pg2 q in
      check_int "line count" (Polarity.point_count q) (Array.length lines);
      Array.iter
        (fun (_, pts) ->
          check_int "points per line" (q + 1) (List.length pts);
          check_int "no duplicate points" (q + 1)
            (List.length (List.sort_uniq compare pts)))
        lines;
      (* any two distinct lines meet in exactly one point *)
      let n = Array.length lines in
      for i = 0 to n - 1 do
        for j = i + 1 to n - 1 do
          let _, a = lines.(i) and _, b = lines.(j) in
          let inter = List.filter (fun p -> List.mem p b) a in
          check_int "lines meet in one point" 1 (List.length inter)
        done
      done)
    [ 2; 3 ]

let test_incidence_graph () =
  let q = 3 in
  let g = Polarity.incidence_graph q in
  check_int "bipartite size" (2 * 13) (Graph.n g);
  check_true "(q+1)-regular" (Graph.is_regular g && Graph.max_degree g = q + 1);
  Alcotest.(check (option int)) "girth 6" (Some 6) (Metrics.girth g);
  Alcotest.(check (option int)) "diameter 3" (Some 3) (Metrics.diameter g)

let test_polarity_graph_structure () =
  List.iter
    (fun q ->
      let g = Polarity.polarity_graph q in
      check_int "vertex count" (Polarity.point_count q) (Graph.n g);
      (* ER_q has q(q+1)^2/2 edges *)
      check_int "edge count" (q * (q + 1) * (q + 1) / 2) (Graph.m g);
      Alcotest.(check (option int)) "diameter 2" (Some 2) (Metrics.diameter g))
    [ 2; 3; 5 ]

let test_polarity_rejects_composite () =
  Alcotest.check_raises "composite q" (Invalid_argument "Polarity: q must be prime")
    (fun () -> ignore (Polarity.polarity_graph 4))

let test_polarity_common_neighbor_property () =
  (* in ER_q any two distinct vertices have at least one common neighbor
     (diameter 2 via the unique line through two points) *)
  let g = Polarity.polarity_graph 3 in
  let n = Graph.n g in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if not (Graph.mem_edge g u v) then begin
        let nu = Graph.neighbors g u in
        let common = Array.exists (fun w -> Graph.mem_edge g v w) nu in
        check_true "common neighbor" common
      end
    done
  done

let test_polarity_is_sum_equilibrium () =
  (* the Albers-et-al-style projective-plane equilibria, measured *)
  check_true "ER_3 sum equilibrium" (Equilibrium.is_equilibrium Game.Sum (Polarity.polarity_graph 3));
  check_true "ER_2 sum equilibrium" (Equilibrium.is_equilibrium Game.Sum (Polarity.polarity_graph 2))

let suite =
  [
    case "is_prime" test_is_prime;
    case "point count" test_point_count;
    case "PG(2,q) line structure" test_pg2_line_structure;
    case "incidence graph" test_incidence_graph;
    case "polarity graph structure" test_polarity_graph_structure;
    case "rejects composite order" test_polarity_rejects_composite;
    case "common-neighbor property" test_polarity_common_neighbor_property;
    slow_case "ER_q is a sum equilibrium" test_polarity_is_sum_equilibrium;
  ]
