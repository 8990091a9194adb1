open Test_helpers

let test_is_star () =
  check_true "K1" (Tree_eq.is_star (Graph.create 1));
  check_true "K2" (Tree_eq.is_star (Generators.path 2));
  check_true "star" (Tree_eq.is_star (Generators.star 7));
  check_false "path" (Tree_eq.is_star (Generators.path 4));
  check_false "cycle not even a tree" (Tree_eq.is_star (Generators.cycle 5))

let test_double_star_detection () =
  check_true "double star" (Tree_eq.is_double_star (Generators.double_star 2 3));
  check_false "plain star" (Tree_eq.is_double_star (Generators.star 5));
  check_false "P5 spider" (Tree_eq.is_double_star (Generators.path 5));
  check_true "P4 is double_star(1,1)" (Tree_eq.is_double_star (Generators.path 4));
  Alcotest.(check (option (pair int int)))
    "arms" (Some (2, 3))
    (Tree_eq.double_star_arms (Generators.double_star 2 3))

let test_theorem1_witness_none_for_star () =
  Alcotest.(check bool) "star has no witness" true
    (Tree_eq.theorem1_witness (Generators.star 6) = None)

let test_theorem1_witness_path () =
  let g = Generators.path 5 in
  match Tree_eq.theorem1_witness g with
  | Some (mv, d) ->
    check_true "improving" (d < 0);
    check_true "applicable" (Swap.is_applicable g mv)
  | None -> Alcotest.fail "P5 has diameter 4 >= 3"

let test_theorem1_witness_all_trees_n6 () =
  (* the witness construction must succeed on every non-star tree *)
  Enumerate.trees 6 (fun g ->
      if not (Tree_eq.is_star g) then
        match Tree_eq.theorem1_witness g with
        | Some (_, d) -> check_true "improving" (d < 0)
        | None -> Alcotest.fail "non-star must have a witness")

let test_theorem4_witness () =
  check_true "double star has no diam>=4 witness"
    (Tree_eq.theorem4_witness (Generators.double_star 2 2) = None);
  match Tree_eq.theorem4_witness (Generators.path 6) with
  | Some (mv, d) ->
    check_true "improving" (d < 0);
    check_true "applicable" (Swap.is_applicable (Generators.path 6) mv)
  | None -> Alcotest.fail "P6 has diameter 5 >= 4"

let test_non_tree_rejected () =
  Alcotest.check_raises "cycle rejected" (Invalid_argument "Tree_eq: not a tree")
    (fun () -> ignore (Tree_eq.sum_eq_tree (Generators.cycle 4)))

let test_sum_eq_tree_matches_generic =
  qcheck ~count:80 "tree fast path = generic checker" (gen_tree ~min_n:1 ~max_n:12)
    (fun g -> Tree_eq.sum_eq_tree g = Equilibrium.is_equilibrium Game.Sum g)

let test_max_eq_tree_matches_generic =
  qcheck ~count:80 "max tree fast path = generic checker" (gen_tree ~min_n:1 ~max_n:12)
    (fun g -> Tree_eq.max_eq_tree g = Equilibrium.is_equilibrium Game.Max g)

let test_exhaustive_n7_sum () =
  (* Theorem 1 verbatim at n=7: equilibrium iff star *)
  Enumerate.trees 7 (fun g ->
      check_bool "eq iff star" (Tree_eq.is_star g) (Tree_eq.sum_eq_tree g))

let test_exhaustive_n6_max () =
  (* Theorem 4 at n=6: equilibrium iff star or double star with arms >= 2 *)
  Enumerate.trees 6 (fun g ->
      let expected =
        Tree_eq.is_star g
        ||
        match Tree_eq.double_star_arms g with
        | Some (a, b) -> min a b >= 2
        | None -> false
      in
      check_bool "classification" expected (Tree_eq.max_eq_tree g))

let suite =
  [
    case "is_star" test_is_star;
    case "double star detection" test_double_star_detection;
    case "theorem1 witness: star" test_theorem1_witness_none_for_star;
    case "theorem1 witness: path" test_theorem1_witness_path;
    case "theorem1 witness: all 6-vertex trees" test_theorem1_witness_all_trees_n6;
    case "theorem4 witness" test_theorem4_witness;
    case "non-tree rejected" test_non_tree_rejected;
    test_sum_eq_tree_matches_generic;
    test_max_eq_tree_matches_generic;
    slow_case "exhaustive n=7 sum" test_exhaustive_n7_sum;
    slow_case "exhaustive n=6 max" test_exhaustive_n6_max;
  ]
