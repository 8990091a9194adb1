open Test_helpers

let test_ownership_assignment () =
  let g = Generators.star 5 in
  let t = Asym_swap.create Asym_swap.Min_endpoint g in
  check_int "center owns all" 0 (Asym_swap.owner t 0 3);
  Alcotest.(check (list int)) "owned edges" [ 1; 2; 3; 4 ] (Asym_swap.owned_edges t 0);
  Alcotest.(check (list int)) "leaf owns none" [] (Asym_swap.owned_edges t 1);
  let t2 = Asym_swap.create (Asym_swap.By_function (fun _ v -> v)) g in
  check_int "custom owner" 3 (Asym_swap.owner t2 0 3)

let test_bad_owner_rejected () =
  Alcotest.check_raises "owner not endpoint"
    (Invalid_argument "Asym_swap.create: owner not an endpoint") (fun () ->
      ignore (Asym_swap.create (Asym_swap.By_function (fun _ _ -> 99)) (Generators.star 4)))

let test_star_is_equilibrium () =
  (* the star is a symmetric equilibrium, hence asymmetric under any
     ownership *)
  List.iter
    (fun ownership ->
      check_true "star stable"
        (Asym_swap.is_equilibrium (Asym_swap.create ownership (Generators.star 8))))
    [ Asym_swap.Min_endpoint; Asym_swap.Random 3 ]

let test_ownership_blocks_deviations () =
  (* a path where every edge is owned by the endpoint closer to vertex 0:
     the far endpoint cannot re-point, freezing moves the symmetric game
     would take *)
  let g = Generators.path 5 in
  let toward_zero = Asym_swap.By_function (fun u _ -> u) in
  let t = Asym_swap.create toward_zero g in
  (* vertex 4 owns nothing, so it has no moves despite wanting one *)
  check_true "leaf has no owner-move" (Asym_swap.best_move t 4 = None);
  let ws = Bfs.create_workspace 5 in
  check_true "but a symmetric move exists"
    (Swap.first_improving_move ws Game.Sum g 4 <> None)

let test_best_move_improves () =
  let g = Generators.path 6 in
  let t = Asym_swap.create Asym_swap.Min_endpoint g in
  match Asym_swap.best_move t 0 with
  | Some (Swap.Swap { actor = 0; _ }, d) -> check_true "improving" (d < 0)
  | _ -> Alcotest.fail "vertex 0 owns its edge and can improve"

let test_dynamics_converges_to_asym_eq () =
  let rng = Prng.create 11 in
  let g = Random_graphs.tree rng 16 in
  let r = Asym_swap.run_dynamics (Asym_swap.create (Asym_swap.Random 11) g) in
  check_true "converged" r.Asym_swap.converged;
  check_true "asym equilibrium" (Asym_swap.is_equilibrium r.Asym_swap.state);
  let final = Asym_swap.graph r.Asym_swap.state in
  check_true "still a tree" (Components.is_tree final);
  check_true "input untouched" (Graph.equal g (Graph.copy g))

let test_symmetric_implies_asymmetric =
  qcheck ~count:40 "symmetric eq => asymmetric eq (any ownership)"
    QCheck2.Gen.(pair (gen_connected ~min_n:3 ~max_n:9) (int_range 0 1000))
    (fun (g, seed) ->
      Asym_swap.symmetric_equilibrium_implies_asymmetric g (Asym_swap.Random seed))

let test_asym_moves_subset_of_symmetric =
  qcheck ~count:30 "owner moves are a subset of symmetric moves"
    QCheck2.Gen.(pair (gen_connected ~min_n:3 ~max_n:10) (int_range 0 1000))
    (fun (g, seed) ->
      let t = Asym_swap.create (Asym_swap.Random seed) g in
      let ws = Bfs.create_workspace (Graph.n g) in
      let ok = ref true in
      for v = 0 to Graph.n g - 1 do
        match Asym_swap.best_move t v with
        | Some (mv, d) ->
          (* the same move must be available and equally valued in the
             symmetric game *)
          if not (Swap.is_applicable g mv) then ok := false
          else if Swap.delta ws Game.Sum g mv <> d then ok := false
        | None -> ()
      done;
      !ok)

let suite =
  [
    case "ownership assignment" test_ownership_assignment;
    case "bad owner rejected" test_bad_owner_rejected;
    case "star equilibrium" test_star_is_equilibrium;
    case "ownership blocks deviations" test_ownership_blocks_deviations;
    case "best move improves" test_best_move_improves;
    case "dynamics converges" test_dynamics_converges_to_asym_eq;
    test_symmetric_implies_asymmetric;
    test_asym_moves_subset_of_symmetric;
  ]
