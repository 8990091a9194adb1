open Test_helpers

let check_float = Alcotest.(check (float 1e-9))

let test_diameter_ratio () =
  (match Poa.diameter_ratio (Generators.star 6) with
  | Some r -> check_float "star" 1.0 r
  | None -> Alcotest.fail "connected");
  (match Poa.diameter_ratio (Generators.complete 5) with
  | Some r -> check_float "complete" 1.0 r
  | None -> Alcotest.fail "connected");
  (match Poa.diameter_ratio (Generators.path 9) with
  | Some r -> check_float "path" 4.0 r
  | None -> Alcotest.fail "connected");
  check_true "disconnected" (Poa.diameter_ratio (Graph.create 3) = None)

let test_sum_cost_ratio () =
  (* the star achieves the lower bound exactly *)
  (match Poa.sum_cost_ratio (Generators.star 8) with
  | Some r -> check_float "star optimal" 1.0 r
  | None -> Alcotest.fail "connected");
  (match Poa.sum_cost_ratio (Generators.path 8) with
  | Some r -> check_true "path suboptimal" (r > 1.0)
  | None -> Alcotest.fail "connected");
  check_true "disconnected" (Poa.sum_cost_ratio (Graph.create 2) = None)

let test_exact_optimum_sum () =
  (* n=4, m=3: best tree is the star with social cost 18 *)
  Alcotest.(check (option int)) "star optimal" (Some 18) (Poa.exact_optimum_sum 4 3);
  (* complete graph: all pairs adjacent *)
  Alcotest.(check (option int)) "complete" (Some 12) (Poa.exact_optimum_sum 4 6);
  Alcotest.(check (option int)) "too few edges" None (Poa.exact_optimum_sum 4 2)

let test_exact_optimum_matches_lower_bound () =
  (* for m admitting a diameter-2 graph, the bound 2n(n-1) - 2m is exact *)
  for m = 4 to 10 do
    match Poa.exact_optimum_sum 5 m with
    | Some opt ->
      check_int "bound tight at n=5"
        (Usage_cost.social_cost_lower_bound Game.Sum ~n:5 ~m)
        opt
    | None -> Alcotest.fail "connected graphs exist"
  done

let test_exact_sum_poa () =
  (* n=4, m=3: the only sum-equilibrium tree is the star = optimum -> PoA 1 *)
  (match Poa.exact_sum_poa 4 3 with
  | Some r -> check_float "PoA 1 at trees" 1.0 r
  | None -> Alcotest.fail "equilibria exist");
  (* no equilibrium may exist at some (n, m); must return None, not crash *)
  check_true "handles empty equilibrium sets"
    (match Poa.exact_sum_poa 4 4 with Some r -> r >= 1.0 | None -> true)

let test_alpha_poa () =
  let t = Alpha_game.create ~alpha:2.0 (Generators.star 5) in
  (* star IS the optimum at alpha = 2 *)
  check_float "star poa" 1.0 (Poa.alpha_poa t)

let test_ratios_at_least_one =
  qcheck ~count:40 "cost ratio >= 1 on connected graphs" (gen_connected ~min_n:2 ~max_n:12)
    (fun g ->
      match Poa.sum_cost_ratio g with Some r -> r >= 1.0 -. 1e-9 | None -> false)

let suite =
  [
    case "diameter ratio" test_diameter_ratio;
    case "sum cost ratio" test_sum_cost_ratio;
    case "exact optimum" test_exact_optimum_sum;
    case "optimum matches lower bound" test_exact_optimum_matches_lower_bound;
    case "exact PoA" test_exact_sum_poa;
    case "alpha PoA" test_alpha_poa;
    test_ratios_at_least_one;
  ]
