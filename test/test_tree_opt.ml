open Test_helpers

let test_sum_cost_matches () =
  let rng = Prng.create 1 in
  let g = Random_graphs.tree rng 20 in
  let p = Tree_opt.precompute g in
  for v = 0 to 19 do
    check_int "sum cost" (Option.get (Metrics.sum_distance g v)) (Tree_opt.sum_cost p v)
  done

let test_swap_delta_path () =
  (* P4: endpoint 0 re-hangs from 1 to 2: delta -1 (computed earlier) *)
  let g = Generators.path 4 in
  let p = Tree_opt.precompute g in
  check_int "delta" (-1) (Tree_opt.swap_delta p ~actor:0 ~drop:1 ~add:2)

let test_swap_delta_disconnecting () =
  let g = Generators.path 5 in
  let p = Tree_opt.precompute g in
  (* agent 2 drops its edge to 3 and attaches to 0 — but 0 is on 2's own
     side, so the tree disconnects: infinite cost *)
  check_true "own-side target is infinite"
    (Tree_opt.swap_delta p ~actor:2 ~drop:3 ~add:0 >= Usage_cost.infinite / 2);
  (* attaching to 4 (the drop side) stays finite *)
  check_true "drop-side target is finite"
    (Tree_opt.swap_delta p ~actor:1 ~drop:2 ~add:3 < Usage_cost.infinite / 2);
  (* the endpoint re-hanging toward the middle strictly improves *)
  check_true "re-hang endpoint improves"
    (Tree_opt.swap_delta p ~actor:4 ~drop:3 ~add:2 < 0)

let test_swap_delta_rejects () =
  let g = Generators.path 4 in
  let p = Tree_opt.precompute g in
  Alcotest.check_raises "not an edge"
    (Invalid_argument "Tree_opt.swap_delta: actor-drop is not an edge") (fun () ->
      ignore (Tree_opt.swap_delta p ~actor:0 ~drop:2 ~add:3));
  Alcotest.check_raises "bad target"
    (Invalid_argument "Tree_opt.swap_delta: bad attachment target") (fun () ->
      ignore (Tree_opt.swap_delta p ~actor:1 ~drop:0 ~add:2))

let test_non_tree_rejected () =
  Alcotest.check_raises "cycle" (Invalid_argument "Tree_opt: not a tree") (fun () ->
      ignore (Tree_opt.precompute (Generators.cycle 5)))

let test_star_is_equilibrium () =
  check_true "star" (Tree_opt.is_equilibrium Game.Sum (Generators.star 9));
  check_false "path" (Tree_opt.is_equilibrium Game.Sum (Generators.path 9))

let test_converge_to_star () =
  let rng = Prng.create 3 in
  let g = Random_graphs.tree rng 60 in
  let final, moves = Tree_opt.converge Game.Sum g in
  check_true "is star" (Tree_eq.is_star final);
  check_true "made progress" (moves > 0 || Tree_eq.is_star g);
  check_true "input untouched" (Components.is_tree g && Graph.m g = 59)

let test_delta_matches_generic =
  qcheck ~count:60 "delta = Swap.delta on all tree swaps" (gen_tree ~min_n:3 ~max_n:14)
    (fun g ->
      let p = Tree_opt.precompute g in
      let ws = Bfs.create_workspace (Graph.n g) in
      let ok = ref true in
      for v = 0 to Graph.n g - 1 do
        Swap.iter_moves g v (fun mv ->
            match mv with
            | Swap.Swap { actor; drop; add } ->
              let fast = Tree_opt.swap_delta p ~actor ~drop ~add in
              let slow = Swap.delta ws Game.Sum g mv in
              (* both are "infinite" on disconnecting swaps; compare the
                 finite cases exactly and the infinite cases by class *)
              let inf x = x >= Usage_cost.infinite / 2 in
              if inf fast <> inf slow then ok := false
              else if (not (inf fast)) && fast <> slow then ok := false
            | Swap.Delete _ -> ())
      done;
      !ok)

let test_best_swap_matches_generic =
  qcheck ~count:60 "best_swap = Swap.best_move on trees" (gen_tree ~min_n:2 ~max_n:14)
    (fun g ->
      let p = Tree_opt.precompute g in
      let ws = Bfs.create_workspace (Graph.n g) in
      let ok = ref true in
      for v = 0 to Graph.n g - 1 do
        if Tree_opt.best_swap p v <> Swap.best_move ws Game.Sum g v then
          ok := false
      done;
      !ok)

let test_equilibrium_matches_generic =
  qcheck ~count:60 "sum is_equilibrium agrees on trees" (gen_tree ~min_n:1 ~max_n:14)
    (fun g -> Tree_opt.is_equilibrium Game.Sum g = Equilibrium.is_equilibrium Game.Sum g)

(* --- max version ------------------------------------------------------ *)

let test_max_delta_path () =
  let g = Generators.path 5 in
  let p = Tree_opt.precompute_max g in
  (* endpoint 0 re-hangs onto the center: ecc 4 -> 3 (via 2 to the far
     end) *)
  check_int "delta" (-1) (Tree_opt.max_swap_delta p ~actor:0 ~drop:1 ~add:2);
  (* re-hang to the far end: ecc stays 4 *)
  check_int "no gain at far end" 0 (Tree_opt.max_swap_delta p ~actor:0 ~drop:1 ~add:4);
  check_true "own-side target infinite"
    (Tree_opt.max_swap_delta p ~actor:2 ~drop:3 ~add:0 >= Usage_cost.infinite / 2)

let test_max_equilibrium_tree_shapes () =
  check_true "star" (Tree_opt.is_equilibrium Game.Max (Generators.star 8));
  check_true "double star (2,2)" (Tree_opt.is_equilibrium Game.Max (Generators.double_star 2 2));
  check_false "double star (1,2)" (Tree_opt.is_equilibrium Game.Max (Generators.double_star 1 2));
  check_false "path" (Tree_opt.is_equilibrium Game.Max (Generators.path 6))

let test_converge_max_diameter3 () =
  let rng = Prng.create 5 in
  let g = Random_graphs.tree rng 50 in
  let final, _ = Tree_opt.converge Game.Max g in
  check_true "still a tree" (Components.is_tree final);
  check_true "diameter <= 3 (Theorem 4)"
    (Option.get (Metrics.diameter final) <= 3);
  check_true "max equilibrium" (Tree_opt.is_equilibrium Game.Max final)

let test_max_delta_matches_generic =
  qcheck ~count:50 "max delta = Swap.delta on all tree swaps" (gen_tree ~min_n:3 ~max_n:13)
    (fun g ->
      let p = Tree_opt.precompute_max g in
      let ws = Bfs.create_workspace (Graph.n g) in
      let ok = ref true in
      for v = 0 to Graph.n g - 1 do
        Swap.iter_moves g v (fun mv ->
            match mv with
            | Swap.Swap { actor; drop; add } ->
              let fast = Tree_opt.max_swap_delta p ~actor ~drop ~add in
              let slow = Swap.delta ws Game.Max g mv in
              let inf x = x >= Usage_cost.infinite / 2 in
              if inf fast <> inf slow then ok := false
              else if (not (inf fast)) && fast <> slow then ok := false
            | Swap.Delete _ -> ())
      done;
      !ok)

let test_max_best_matches_generic =
  qcheck ~count:50 "best_max_swap = Swap.best_move Max" (gen_tree ~min_n:2 ~max_n:13)
    (fun g ->
      let p = Tree_opt.precompute_max g in
      let ws = Bfs.create_workspace (Graph.n g) in
      let ok = ref true in
      for v = 0 to Graph.n g - 1 do
        if Tree_opt.best_max_swap p v <> Swap.best_move ws Game.Max g v then
          ok := false
      done;
      !ok)

let test_max_eq_matches_generic =
  qcheck ~count:50 "is_max_equilibrium_tree agrees with generic"
    (gen_tree ~min_n:1 ~max_n:13) (fun g ->
      Tree_opt.is_equilibrium Game.Max g = Equilibrium.is_equilibrium Game.Max g)

let suite =
  [
    case "sum cost" test_sum_cost_matches;
    case "max delta on path" test_max_delta_path;
    case "max equilibrium shapes" test_max_equilibrium_tree_shapes;
    case "converge max reaches diameter <= 3" test_converge_max_diameter3;
    test_max_delta_matches_generic;
    test_max_best_matches_generic;
    test_max_eq_matches_generic;
    case "swap delta on path" test_swap_delta_path;
    case "disconnecting swap" test_swap_delta_disconnecting;
    case "rejects bad moves" test_swap_delta_rejects;
    case "rejects non-trees" test_non_tree_rejected;
    case "star equilibrium" test_star_is_equilibrium;
    case "converge to star" test_converge_to_star;
    test_delta_matches_generic;
    test_best_swap_matches_generic;
    test_equilibrium_matches_generic;
  ]
