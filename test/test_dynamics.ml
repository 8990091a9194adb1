open Test_helpers

let test_star_is_fixed_point () =
  let g = Generators.star 8 in
  let r = Dynamics.run (Dynamics.default_config Game.Sum) g in
  check_true "converged" (r.Dynamics.outcome = Dynamics.Converged);
  check_int "no moves" 0 r.Dynamics.moves;
  check_true "unchanged" (Graph.equal g r.Dynamics.final)

let test_input_not_mutated () =
  let g = Generators.path 8 in
  let copy = Graph.copy g in
  ignore (Dynamics.run (Dynamics.default_config Game.Sum) g);
  check_true "input untouched" (Graph.equal g copy)

let test_path_converges_to_star () =
  (* Theorem 1: the only sum-equilibrium tree is the star, and swaps
     preserve edge count, so a tree must converge to a star *)
  let r = Dynamics.run (Dynamics.default_config Game.Sum) (Generators.path 10) in
  check_true "converged" (r.Dynamics.outcome = Dynamics.Converged);
  check_true "still a tree" (Components.is_tree r.Dynamics.final);
  check_true "is a star" (Tree_eq.is_star r.Dynamics.final)

let test_sum_preserves_edge_count () =
  let g = Generators.cycle 9 in
  let r = Dynamics.run (Dynamics.default_config Game.Sum) g in
  check_int "m preserved" (Graph.m g) (Graph.m r.Dynamics.final)

let test_max_deletions_shrink () =
  (* max dynamics may delete extraneous edges, never grows *)
  let rng = Prng.create 2 in
  let g = Random_graphs.connected_gnm rng 20 60 in
  let r = Dynamics.run ~rng (Dynamics.default_config Game.Max) g in
  check_true "m non-increasing" (Graph.m r.Dynamics.final <= Graph.m g);
  check_true "still connected" (Components.is_connected r.Dynamics.final)

let test_converged_is_equilibrium () =
  let rng = Prng.create 3 in
  for seed = 1 to 5 do
    let rng2 = Prng.create seed in
    let g = Random_graphs.connected_gnm rng2 15 30 in
    let r = Dynamics.run ~rng (Dynamics.default_config Game.Sum) g in
    if r.Dynamics.outcome = Dynamics.Converged then
      check_true "verified equilibrium" (Equilibrium.is_equilibrium Game.Sum r.Dynamics.final);
    let rm = Dynamics.run ~rng (Dynamics.default_config Game.Max) g in
    if rm.Dynamics.outcome = Dynamics.Converged then
      check_true "verified max equilibrium" (Equilibrium.is_equilibrium Game.Max rm.Dynamics.final)
  done

let test_rules_all_converge () =
  List.iter
    (fun rule ->
      let cfg = { (Dynamics.default_config Game.Sum) with Dynamics.rule } in
      let rng = Prng.create 7 in
      let r = Dynamics.run ~rng cfg (Generators.path 12) in
      check_true "converged" (r.Dynamics.outcome = Dynamics.Converged);
      check_true "equilibrium" (Equilibrium.is_equilibrium Game.Sum r.Dynamics.final))
    [ Dynamics.Best_response; Dynamics.First_improving; Dynamics.Random_improving ]

let test_schedules_all_converge () =
  List.iter
    (fun schedule ->
      let cfg = { (Dynamics.default_config Game.Sum) with Dynamics.schedule } in
      let rng = Prng.create 8 in
      let r = Dynamics.run ~rng cfg (Generators.cycle 11) in
      check_true "converged" (r.Dynamics.outcome = Dynamics.Converged);
      check_true "equilibrium" (Equilibrium.is_equilibrium Game.Sum r.Dynamics.final))
    [ Dynamics.Round_robin; Dynamics.Random_agent ]

let test_sampled_rule_converges () =
  (* bounded agents with a tiny budget still reach a true equilibrium *)
  let cfg =
    {
      (Dynamics.default_config Game.Sum) with
      Dynamics.rule = Dynamics.Sampled 2;
      max_rounds = 500;
    }
  in
  let rng = Prng.create 9 in
  let r = Dynamics.run ~rng cfg (Generators.path 12) in
  check_true "converged" (r.Dynamics.outcome = Dynamics.Converged);
  check_true "verified equilibrium" (Equilibrium.is_equilibrium Game.Sum r.Dynamics.final)

let test_sampled_convergence_is_certified () =
  (* Converged under Sampled means a FULL scan found nothing, not just a
     quiet sampling pass *)
  let cfg =
    {
      (Dynamics.default_config Game.Sum) with
      Dynamics.rule = Dynamics.Sampled 1;
      max_rounds = 1000;
    }
  in
  for seed = 1 to 5 do
    let rng = Prng.create seed in
    let g = Random_graphs.connected_gnm rng 12 20 in
    let r = Dynamics.run ~rng cfg g in
    if r.Dynamics.outcome = Dynamics.Converged then
      check_true "certified" (Equilibrium.is_equilibrium Game.Sum r.Dynamics.final)
  done

let test_trace_recording () =
  let cfg =
    { (Dynamics.default_config Game.Sum) with Dynamics.record_trace = true }
  in
  let r = Dynamics.run cfg (Generators.path 8) in
  check_int "trace length = moves" r.Dynamics.moves (List.length r.Dynamics.trace);
  check_true "moves happened" (r.Dynamics.moves > 0);
  (* indices are chronological and deltas are improving *)
  List.iteri
    (fun i step ->
      check_int "index" i step.Dynamics.index;
      check_true "improving move" (step.Dynamics.delta < 0);
      check_true "social recorded" (step.Dynamics.social > 0))
    r.Dynamics.trace

let test_round_limit () =
  let cfg = { (Dynamics.default_config Game.Sum) with Dynamics.max_rounds = 0 } in
  let r = Dynamics.run cfg (Generators.path 6) in
  check_true "hits limit" (r.Dynamics.outcome = Dynamics.Round_limit);
  check_int "no rounds" 0 r.Dynamics.rounds

let test_disconnected_rejected () =
  Alcotest.check_raises "disconnected"
    (Invalid_argument "Dynamics.run: input must be connected") (fun () ->
      ignore (Dynamics.run (Dynamics.default_config Game.Sum) (Graph.create 3)))

let test_max_reaches_deletion_critical =
  qcheck ~count:15 "converged max dynamics is deletion-critical"
    (gen_connected ~min_n:5 ~max_n:12) (fun g ->
      let r = Dynamics.run (Dynamics.default_config Game.Max) g in
      r.Dynamics.outcome <> Dynamics.Converged
      || Equilibrium.is_deletion_critical r.Dynamics.final)

let test_social_cost_finite_throughout =
  qcheck ~count:15 "dynamics never disconnects the graph"
    (gen_connected ~min_n:4 ~max_n:12) (fun g ->
      let r = Dynamics.run (Dynamics.default_config Game.Sum) g in
      Components.is_connected r.Dynamics.final)

let suite =
  [
    case "star is a fixed point" test_star_is_fixed_point;
    case "input not mutated" test_input_not_mutated;
    case "trees converge to stars" test_path_converges_to_star;
    case "sum preserves edge count" test_sum_preserves_edge_count;
    case "max deletions shrink" test_max_deletions_shrink;
    case "converged => verified equilibrium" test_converged_is_equilibrium;
    case "all rules converge" test_rules_all_converge;
    case "all schedules converge" test_schedules_all_converge;
    case "sampled rule converges" test_sampled_rule_converges;
    case "sampled convergence certified" test_sampled_convergence_is_certified;
    case "trace recording" test_trace_recording;
    case "round limit" test_round_limit;
    case "disconnected rejected" test_disconnected_rejected;
    test_max_reaches_deletion_critical;
    test_social_cost_finite_throughout;
  ]
