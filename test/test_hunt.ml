open Test_helpers

let test_violating_agents () =
  check_int "star has none" 0 (Hunt.violating_agents Game.Sum (Generators.star 7));
  check_true "path has many" (Hunt.violating_agents Game.Sum (Generators.path 7) > 0);
  check_int "torus max has none" 0
    (Hunt.violating_agents Game.Max (Constructions.torus 3));
  (* max version counts non-critical deletions too *)
  let chorded = Graph.of_edges 5 [ (0, 1); (1, 2); (2, 3); (3, 4); (4, 0); (0, 2) ] in
  check_true "chorded C5 violates max" (Hunt.violating_agents Game.Max chorded > 0)

let zero_iff_equilibrium game =
  qcheck ~count:40
    (Printf.sprintf "violating_agents = 0 iff %s equilibrium" (Game.to_string game))
    (gen_connected ~min_n:3 ~max_n:10) (fun g ->
      (Hunt.violating_agents game g = 0) = Equilibrium.is_equilibrium game g)

let test_hunt_finds_diameter3_at_8 () =
  let rng = Prng.create 108 in
  let r = Hunt.hunt_sum_diameter rng ~n:8 ~target_diameter:3 ~steps:4000 () in
  match r.Hunt.found with
  | Some g ->
    check_true "verified" (Equilibrium.is_equilibrium Game.Sum g);
    check_true "diameter >= 3" (Option.get (Metrics.diameter g) >= 3)
  | None -> Alcotest.fail "hunt should find the n=8 witness"

let test_hunt_respects_impossible_target () =
  (* no diameter-3 sum equilibrium exists at n = 6 (exhaustive census) *)
  let rng = Prng.create 1 in
  let r = Hunt.run rng { (Hunt.default_config ~n:6 ~target_diameter:3 ()) with Hunt.steps = 600; restarts = 1 } in
  check_true "cannot find the impossible" (r.Hunt.found = None);
  check_true "still evaluated candidates" (r.Hunt.evaluated > 0)

let test_found_graphs_always_verified () =
  (* whatever the hunt returns must be a genuine equilibrium at target *)
  let rng = Prng.create 7 in
  List.iter
    (fun n ->
      let r = Hunt.hunt_sum_diameter rng ~n ~target_diameter:2 ~steps:500 () in
      match r.Hunt.found with
      | Some g ->
        check_true "verified equilibrium" (Equilibrium.is_equilibrium Game.Sum g);
        check_true "diameter target met" (Option.get (Metrics.diameter g) >= 2);
        check_int "right size" n (Graph.n g)
      | None -> ())
    [ 6; 8 ]

let test_minimal_witness_properties () =
  let g = Constructions.sum_diameter3_minimal in
  check_int "n" 8 (Graph.n g);
  check_int "m" 12 (Graph.m g);
  Alcotest.(check (option int)) "diameter" (Some 3) (Metrics.diameter g);
  check_true "sum equilibrium" (Equilibrium.is_equilibrium Game.Sum g);
  check_int "automorphisms" 2 (Canon.automorphism_count g)

let suite =
  [
    case "violating agents" test_violating_agents;
    zero_iff_equilibrium Game.Sum;
    zero_iff_equilibrium Game.Max;
    zero_iff_equilibrium (Game.Alpha 1.0);
    slow_case "finds the n=8 diameter-3 witness" test_hunt_finds_diameter3_at_8;
    case "cannot find the impossible" test_hunt_respects_impossible_target;
    case "finds are verified" test_found_graphs_always_verified;
    case "minimal witness properties" test_minimal_witness_properties;
  ]
