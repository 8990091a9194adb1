open Test_helpers

let test_star_both_versions () =
  let g = Generators.star 6 in
  check_true "sum" (Equilibrium.is_equilibrium Game.Sum g);
  check_true "max" (Equilibrium.is_equilibrium Game.Max g)

let test_complete_graph () =
  let g = Generators.complete 5 in
  check_true "sum" (Equilibrium.is_equilibrium Game.Sum g);
  (* complete graphs are NOT max equilibria: deleting an edge keeps local
     diameter at... n=5: deleting uv leaves d(u,v)=2, ecc(u) was 1 -> 2,
     strictly increases, so deletion-critical holds; swaps cannot exist
     (no non-neighbors) *)
  check_true "max" (Equilibrium.is_equilibrium Game.Max g)

let test_path_not_equilibrium () =
  let g = Generators.path 5 in
  (match Equilibrium.check Game.Sum g with
  | Equilibrium.Violation (mv, d) ->
    check_true "improving" (d < 0);
    check_true "applicable" (Swap.is_applicable g mv)
  | _ -> Alcotest.fail "P5 is not a sum equilibrium");
  match Equilibrium.check Game.Max g with
  | Equilibrium.Violation (_, d) -> check_true "improving or non-critical" (d <= 0)
  | _ -> Alcotest.fail "P5 is not a max equilibrium"

let test_disconnected_verdict () =
  let g = Graph.of_edges 4 [ (0, 1); (2, 3) ] in
  check_true "sum disconnected" (Equilibrium.check Game.Sum g = Equilibrium.Disconnected);
  check_true "max disconnected" (Equilibrium.check Game.Max g = Equilibrium.Disconnected)

let test_cycle_sum_equilibrium () =
  (* C5 is a sum equilibrium (diameter 2, Lemma 6); C7 is not *)
  check_true "C5" (Equilibrium.is_equilibrium Game.Sum (Generators.cycle 5));
  check_false "C7" (Equilibrium.is_equilibrium Game.Sum (Generators.cycle 7))

let test_deletion_critical () =
  (* trees: every deletion disconnects, so strictly increases *)
  check_true "tree" (Equilibrium.is_deletion_critical (Generators.star 5));
  (* a triangle is: deleting uv moves d(u,v) from 1 to 2 > ecc 1 *)
  check_true "triangle" (Equilibrium.is_deletion_critical (Generators.complete 3));
  (* C5 plus the chord 0-2: ecc(0) = 2 with or without the chord, so the
     chord's deletion is not critical *)
  let g = Graph.of_edges 5 [ (0, 1); (1, 2); (2, 3); (3, 4); (4, 0); (0, 2) ] in
  check_false "chorded C5" (Equilibrium.is_deletion_critical g);
  match Equilibrium.find_non_critical_deletion g with
  | Some (Swap.Delete { actor; drop }, d) ->
    check_true "no increase" (d <= 0);
    (* recompute: the witness deletion really leaves the actor's local
       diameter unchanged *)
    let before = Option.get (Metrics.local_diameter g actor) in
    Graph.remove_edge g actor drop;
    let after = Option.get (Metrics.local_diameter g actor) in
    Graph.add_edge g actor drop;
    check_int "verified neutral" before after
  | _ -> Alcotest.fail "expected a witness"

let test_insertion_stable () =
  (* complete graph: vacuously stable (no absent edges) *)
  check_true "complete" (Equilibrium.is_insertion_stable (Generators.complete 4));
  (* path: inserting 0-4 lowers ecc of both endpoints *)
  check_false "path" (Equilibrium.is_insertion_stable (Generators.path 5));
  (match Equilibrium.find_insertion_violation (Generators.path 5) with
  | Some (u, v) -> check_true "endpoints far apart" (abs (u - v) >= 2)
  | None -> Alcotest.fail "expected violation");
  (* the paper's torus is insertion-stable *)
  check_true "torus" (Equilibrium.is_insertion_stable (Constructions.torus 3))

let test_stable_under_insertions () =
  (* k=1 must agree with is_insertion_stable restricted to single vertex
     improvement *)
  let t = Constructions.torus 3 in
  check_true "torus k=1" (Equilibrium.is_stable_under_insertions t ~k:1);
  check_false "path k=1" (Equilibrium.is_stable_under_insertions (Generators.path 5) ~k:1);
  (* 3-dim torus is stable under 2 insertions *)
  check_true "torus_d dim=3 k=2 insertions"
    (Equilibrium.is_stable_under_insertions (Constructions.torus_d ~dim:3 2) ~k:2);
  (* but the 2-dim torus is NOT stable under 2 insertions (only d-1 = 1):
     two chords can cover both far contours *)
  check_false "2-dim torus under 2 insertions"
    (Equilibrium.is_stable_under_insertions (Constructions.torus 3) ~k:2)

let test_k_swap_exhaustive () =
  (* k = 1 swap-stability coincides with the swap half of sum equilibrium *)
  check_true "star k=1" (Equilibrium.is_stable_under_k_swaps Game.Sum (Generators.star 8) ~k:1);
  check_false "path k=1" (Equilibrium.is_stable_under_k_swaps Game.Sum (Generators.path 6) ~k:1);
  (* the diameter-3 witnesses are 1-swap stable but fall to 2-swaps *)
  check_true "witness k=1"
    (Equilibrium.is_stable_under_k_swaps Game.Sum Constructions.sum_diameter3_witness ~k:1);
  check_false "witness k=2"
    (Equilibrium.is_stable_under_k_swaps Game.Sum Constructions.sum_diameter3_witness ~k:2);
  (* diameter-2 equilibria survive 2-swaps *)
  check_true "polarity k=2"
    (Equilibrium.is_stable_under_k_swaps Game.Sum (Polarity.polarity_graph 3) ~k:2);
  check_true "star k=3" (Equilibrium.is_stable_under_k_swaps Game.Sum (Generators.star 8) ~k:3)

let test_k_swap_witness_verified () =
  match
    Equilibrium.find_k_swap_violation Game.Sum Constructions.sum_diameter3_witness ~k:2
  with
  | None -> Alcotest.fail "expected a 2-swap violation"
  | Some (actor, pairs) ->
    (* re-apply the witness by hand and confirm the strict improvement *)
    let g = Graph.copy Constructions.sum_diameter3_witness in
    let before = Option.get (Metrics.sum_distance g actor) in
    List.iter (fun (drop, _) -> Graph.remove_edge g actor drop) pairs;
    List.iter (fun (_, add) -> Graph.add_edge g actor add) pairs;
    (match Metrics.sum_distance g actor with
    | Some after -> check_true "strict improvement" (after < before)
    | None -> Alcotest.fail "witness disconnects")

let test_k_swap_matches_single_swap =
  qcheck ~count:30 "k=1 stability = no improving single swap"
    (gen_connected ~min_n:3 ~max_n:9) (fun g ->
      let ws = Bfs.create_workspace (Graph.n g) in
      let any_improving = ref false in
      for v = 0 to Graph.n g - 1 do
        if Swap.first_improving_move ws Game.Sum g v <> None then
          any_improving := true
      done;
      Equilibrium.is_stable_under_k_swaps Game.Sum g ~k:1 = not !any_improving)

let test_k_change_sampled () =
  let rng = Prng.create 5 in
  (* sampled checker must find the single-change improvement on a path *)
  check_false "path fails sampled check"
    (Equilibrium.k_change_stable_sampled rng (Generators.path 6) ~k:1 ~trials:200)

let test_eccentricity_spread () =
  Alcotest.(check (option int)) "path P5" (Some 2)
    (Equilibrium.eccentricity_spread (Generators.path 5));
  Alcotest.(check (option int)) "star" (Some 1)
    (Equilibrium.eccentricity_spread (Generators.star 5));
  Alcotest.(check (option int)) "cycle" (Some 0)
    (Equilibrium.eccentricity_spread (Generators.cycle 6));
  Alcotest.(check (option int)) "disconnected" None
    (Equilibrium.eccentricity_spread (Graph.create 3))

let test_lemma2_on_max_equilibria () =
  (* Lemma 2: max equilibria have spread <= 1 — check on known equilibria *)
  List.iter
    (fun g ->
      check_true "is max eq" (Equilibrium.is_equilibrium Game.Max g);
      match Equilibrium.eccentricity_spread g with
      | Some s -> check_true "spread <= 1" (s <= 1)
      | None -> Alcotest.fail "connected")
    [ Generators.star 7; Generators.double_star 2 2; Constructions.torus 3 ]

let test_lemma3 () =
  check_true "star (one far component allowed)" (Equilibrium.lemma3_holds (Generators.star 5));
  (* P5's center is a cut vertex with far vertices on both sides *)
  check_false "path violates" (Equilibrium.lemma3_holds (Generators.path 5));
  check_true "no cut vertices" (Equilibrium.lemma3_holds (Generators.cycle 6))

let test_double_star_census_boundary () =
  check_false "double_star(1,1)" (Equilibrium.is_equilibrium Game.Max (Generators.double_star 1 1));
  check_false "double_star(1,4)" (Equilibrium.is_equilibrium Game.Max (Generators.double_star 1 4));
  check_true "double_star(2,2)" (Equilibrium.is_equilibrium Game.Max (Generators.double_star 2 2));
  check_true "double_star(4,2)" (Equilibrium.is_equilibrium Game.Max (Generators.double_star 4 2))

let test_sum_eq_agrees_with_bruteforce =
  (* independent checker that rebuilds the graph per candidate move *)
  let brute_force_sum_eq g =
    let n = Graph.n g in
    let edges = Graph.edges g in
    let sum_from h v =
      let d = Bfs.distances h v in
      Array.fold_left
        (fun acc x -> if x = Bfs.unreachable then Usage_cost.infinite else acc + x)
        0 d
    in
    Components.is_connected g
    && List.for_all
         (fun (a, b) ->
           List.for_all
             (fun (v, drop) ->
               let base = sum_from g v in
               List.for_all
                 (fun add ->
                   if add = v || add = drop || Graph.mem_edge g v add then true
                   else begin
                     let es =
                       (min v add, max v add)
                       :: List.filter (fun e -> e <> (min v drop, max v drop)) edges
                     in
                     sum_from (Graph.of_edges n es) v >= base
                   end)
                 (List.init n Fun.id))
             [ (a, b); (b, a) ])
         edges
  in
  qcheck ~count:40 "library checker = brute force" (gen_connected ~min_n:2 ~max_n:8)
    (fun g -> Equilibrium.is_equilibrium Game.Sum g = brute_force_sum_eq g)

let test_converged_dynamics_are_equilibria =
  qcheck ~count:20 "sum dynamics output passes checker" (gen_connected ~min_n:4 ~max_n:14)
    (fun g ->
      let r = Dynamics.run (Dynamics.default_config Game.Sum) g in
      r.Dynamics.outcome <> Dynamics.Converged
      || Equilibrium.is_equilibrium Game.Sum r.Dynamics.final)

let suite =
  [
    case "star equilibria" test_star_both_versions;
    case "complete graph" test_complete_graph;
    case "path not equilibrium" test_path_not_equilibrium;
    case "disconnected verdict" test_disconnected_verdict;
    case "cycles" test_cycle_sum_equilibrium;
    case "deletion-critical" test_deletion_critical;
    case "insertion-stable" test_insertion_stable;
    case "stable under k insertions" test_stable_under_insertions;
    case "k-swap stability (exhaustive)" test_k_swap_exhaustive;
    case "k-swap witness verified" test_k_swap_witness_verified;
    test_k_swap_matches_single_swap;
    case "sampled k-change checker" test_k_change_sampled;
    case "eccentricity spread" test_eccentricity_spread;
    case "Lemma 2 on known equilibria" test_lemma2_on_max_equilibria;
    case "Lemma 3" test_lemma3;
    case "double-star boundary" test_double_star_census_boundary;
    test_sum_eq_agrees_with_bruteforce;
    test_converged_dynamics_are_equilibria;
  ]
