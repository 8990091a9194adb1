open Test_helpers

let test_lg () =
  Alcotest.(check (float 1e-9)) "lg 1" 0.0 (Theory.lg 1);
  Alcotest.(check (float 1e-9)) "lg 8" 3.0 (Theory.lg 8);
  Alcotest.check_raises "lg 0" (Invalid_argument "Theory.lg") (fun () ->
      ignore (Theory.lg 0))

let test_theorem9_bound_monotone () =
  check_true "grows" (Theory.theorem9_bound 1000 > Theory.theorem9_bound 100);
  (* and is subpolynomial: bound(n) / n -> 0; spot check *)
  check_true "subpolynomial at large n"
    (Theory.theorem9_bound 1_000_000 < 1_000_000.0 /. 10.0)

let test_theorem9_recurrence () =
  let b100 = Theory.theorem9_recurrence_bound 100 in
  check_true "positive" (b100 > 0);
  check_true "monotone-ish over decades"
    (Theory.theorem9_recurrence_bound 10_000 >= b100);
  check_int "trivial below 2" 0 (Theory.theorem9_recurrence_bound 1)

let test_lemma10_on_small_diameter () =
  (* any diameter <= 2 lg n graph reports Small_diameter *)
  match Theory.lemma10_check (Generators.star 16) 0 with
  | Some Theory.Small_diameter -> ()
  | Some (Theory.Edge _) -> Alcotest.fail "expected small diameter"
  | None -> Alcotest.fail "lemma must hold"

let test_lemma10_on_high_diameter_equilibrium_fails_gracefully () =
  (* a long path is NOT an equilibrium; the lemma may or may not find an
     edge, but must not crash and must return a well-formed result *)
  match Theory.lemma10_check (Generators.path 40) 0 with
  | Some (Theory.Edge { x; y; removal_cost }) ->
    check_true "edge exists" (Graph.mem_edge (Generators.path 40) x y);
    check_true "cost nonneg" (removal_cost >= 0)
  | Some Theory.Small_diameter | None -> ()

let test_lemma10_budget_respected () =
  (* on the verified high-diameter equilibria the found edge respects the
     budget by construction; spot-check the witness *)
  let g = Constructions.sum_diameter3_witness in
  for u = 0 to Graph.n g - 1 do
    match Theory.lemma10_check g u with
    | Some _ -> ()
    | None -> Alcotest.fail "Lemma 10 must hold on sum equilibria"
  done

let test_corollary11 () =
  (* star: adding a leaf-leaf edge improves that leaf's sum by exactly 1 *)
  check_int "star max gain" 1 (Theory.corollary11_max_gain (Generators.star 8));
  (* complete graph: no edges to add *)
  check_int "complete" 0 (Theory.corollary11_max_gain (Generators.complete 5));
  (* path: huge gains possible, but the path is not an equilibrium *)
  check_true "path gains big" (Theory.corollary11_max_gain (Generators.path 20) > 20)

let test_corollary11_budget_on_equilibria =
  qcheck ~count:10 "equilibria respect the 5 n lg n budget"
    (gen_connected ~min_n:6 ~max_n:14) (fun g0 ->
      let r = Dynamics.run (Dynamics.default_config Game.Sum) g0 in
      r.Dynamics.outcome <> Dynamics.Converged
      ||
      let g = r.Dynamics.final in
      float_of_int (Theory.corollary11_max_gain g)
      <= Theory.corollary11_budget (Graph.n g))

let test_max_lower_bound_diameter () =
  Alcotest.(check (float 1e-9)) "dim 2" 3.0 (Theory.max_lower_bound_diameter ~dim:2 18);
  Alcotest.(check (float 1e-9)) "dim 3" 3.0 (Theory.max_lower_bound_diameter ~dim:3 54)

let test_theorem15_bound () =
  let b = Theory.theorem15_bound ~n:1024 ~epsilon:0.1 in
  check_true "finite positive" (b > 0.0 && b < 100.0);
  (* smaller epsilon gives smaller bound *)
  check_true "monotone in epsilon"
    (Theory.theorem15_bound ~n:1024 ~epsilon:0.01 < b);
  Alcotest.check_raises "epsilon range"
    (Invalid_argument "Theory.theorem15_bound: need 0 < epsilon < 1/4") (fun () ->
      ignore (Theory.theorem15_bound ~n:10 ~epsilon:0.3))

let test_theorem13_diameter_bound () =
  let b = Theory.theorem13_diameter_bound ~n:100 ~epsilon:0.5 ~d:1000 in
  check_true "positive" (b >= 1.0);
  check_true "sublinear in d" (b < 1000.0)

let suite =
  [
    case "lg" test_lg;
    case "theorem 9 smooth bound" test_theorem9_bound_monotone;
    case "theorem 9 recurrence bound" test_theorem9_recurrence;
    case "lemma 10: small diameter" test_lemma10_on_small_diameter;
    case "lemma 10: high diameter" test_lemma10_on_high_diameter_equilibrium_fails_gracefully;
    case "lemma 10: on witness equilibrium" test_lemma10_budget_respected;
    case "corollary 11 gains" test_corollary11;
    test_corollary11_budget_on_equilibria;
    case "max lower bound diameter" test_max_lower_bound_diameter;
    case "theorem 15 bound" test_theorem15_bound;
    case "theorem 13 bound" test_theorem13_diameter_bound;
  ]
