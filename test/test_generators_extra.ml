open Test_helpers

let check_opt_int = Alcotest.(check (option int))

let test_wheel () =
  let g = Generators.wheel 6 in
  check_int "n" 7 (Graph.n g);
  check_int "m" 12 (Graph.m g);
  check_int "hub degree" 6 (Graph.degree g 0);
  check_int "rim degree" 3 (Graph.degree g 1);
  check_opt_int "diameter" (Some 2) (Metrics.diameter g);
  check_true "wheel(3) = K4" (Canon.isomorphic (Generators.wheel 3) (Generators.complete 4))

let test_friendship () =
  let g = Generators.friendship 4 in
  check_int "n" 9 (Graph.n g);
  check_int "m" 12 (Graph.m g);
  check_opt_int "diameter" (Some 2) (Metrics.diameter g);
  (* the friendship property: every pair has exactly one common neighbor *)
  let n = Graph.n g in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      let common =
        Array.fold_left
          (fun acc w -> if Graph.mem_edge g v w then acc + 1 else acc)
          0 (Graph.neighbors g u)
      in
      check_int "one common friend" 1 common
    done
  done

let test_cocktail_party () =
  let g = Generators.cocktail_party 3 in
  check_int "n" 6 (Graph.n g);
  check_int "m" 12 (Graph.m g);
  check_true "regular of degree 2k-2" (Graph.is_regular g && Graph.max_degree g = 4);
  check_false "antipodes not adjacent" (Graph.mem_edge g 0 1);
  check_true "iso to K_{2,2,2}"
    (Canon.isomorphic g (Generators.complete_multipartite [ 2; 2; 2 ]))

let test_complete_multipartite () =
  let g = Generators.complete_multipartite [ 2; 3 ] in
  check_true "K_{2,3}" (Canon.isomorphic g (Generators.complete_bipartite 2 3));
  let k = Generators.complete_multipartite [ 1; 1; 1; 1 ] in
  check_true "all-singletons = K4" (Graph.equal k (Generators.complete 4))

let test_caterpillar () =
  let g = Generators.caterpillar 4 [ 1; 0; 2 ] in
  check_int "n" 7 (Graph.n g);
  check_true "is tree" (Components.is_tree g);
  check_int "spine 0 degree" 2 (Graph.degree g 0);
  check_int "spine 2 degree" 4 (Graph.degree g 2);
  (* missing legs entries default to 0 *)
  check_int "spine 3 degree" 1 (Graph.degree g 3)

let test_spider () =
  let g = Generators.spider [ 2; 2; 1 ] in
  check_int "n" 6 (Graph.n g);
  check_true "is tree" (Components.is_tree g);
  check_int "hub degree" 3 (Graph.degree g 0);
  check_opt_int "diameter = two longest arms" (Some 4) (Metrics.diameter g)

let test_barbell () =
  let g = Generators.barbell 4 2 in
  check_int "n" 10 (Graph.n g);
  check_int "m" (6 + 6 + 3) (Graph.m g);
  check_true "connected" (Components.is_connected g);
  check_opt_int "diameter" (Some 5) (Metrics.diameter g);
  (* p = 0: two cliques joined by one edge *)
  let g0 = Generators.barbell 3 0 in
  check_int "m with direct bridge" 7 (Graph.m g0);
  Alcotest.(check (list (pair int int))) "bridge found" [ (2, 3) ] (Components.bridges g0)

let test_family_equilibrium_status () =
  (* wheels and friendship graphs are diameter-2 sum equilibria: every
     vertex has local diameter <= 2, so Lemma 6 freezes all swaps *)
  check_true "wheel 6 sum eq" (Equilibrium.is_equilibrium Game.Sum (Generators.wheel 6));
  check_false "wheel 6 not max eq" (Equilibrium.is_equilibrium Game.Max (Generators.wheel 6));
  check_true "friendship 2 sum eq" (Equilibrium.is_equilibrium Game.Sum (Generators.friendship 2));
  check_true "friendship 3 sum eq" (Equilibrium.is_equilibrium Game.Sum (Generators.friendship 3));
  check_true "cocktail party sum eq" (Equilibrium.is_equilibrium Game.Sum (Generators.cocktail_party 3))

let suite =
  [
    case "wheel" test_wheel;
    case "friendship" test_friendship;
    case "cocktail party" test_cocktail_party;
    case "complete multipartite" test_complete_multipartite;
    case "caterpillar" test_caterpillar;
    case "spider" test_spider;
    case "barbell" test_barbell;
    case "equilibrium status of new families" test_family_equilibrium_status;
  ]
