(* Quickstart: the basic network creation game in five minutes.

     dune exec examples/quickstart.exe

   Builds a small network, inspects agent costs, evaluates a swap by hand,
   runs best-response dynamics to a swap equilibrium, and verifies the
   result with the equilibrium checker. *)

let pf = Printf.printf

let () =
  (* 1. A network: agents are vertices, links are edges.  Start from a path
     on 8 agents — the worst network for everyone in the middle of it. *)
  let g = Generators.path 8 in
  pf "initial network: path on %d agents, %d links\n" (Graph.n g) (Graph.m g);

  (* 2. Usage costs.  The game picks the cost: [Game.Sum] charges an agent
     the total distance to everyone else, [Game.Max] its eccentricity. *)
  let ws = Bfs.create_workspace (Graph.n g) in
  for v = 0 to Graph.n g - 1 do
    pf "  agent %d: sum cost %2d, local diameter %d\n" v
      (Usage_cost.vertex_cost ws Game.Sum g v)
      (Usage_cost.vertex_cost ws Game.Max g v)
  done;

  (* 3. A move: agent 0 would rather be attached to the middle of the path
     than to its end.  Moves are edge swaps: replace one incident edge by
     another. *)
  let mv = Swap.Swap { actor = 0; drop = 1; add = 4 } in
  let delta = Swap.delta ws Game.Sum g mv in
  pf "\nagent 0 considers %s: sum-cost change %d (%s)\n"
    (Swap.move_to_string mv) delta
    (if delta < 0 then "improving — it would take it" else "not improving");

  (* 4. Equilibrium check (polynomial time — the paper's selling point
     against Nash equilibria, which are NP-hard to verify). *)
  (match Equilibrium.check Game.Sum g with
  | Equilibrium.Violation (w, d) ->
    pf "the path is not a sum equilibrium: %s improves by %d\n"
      (Swap.move_to_string w) d
  | Equilibrium.Equilibrium -> pf "unexpectedly stable\n"
  | Equilibrium.Disconnected -> pf "disconnected\n"
  | Equilibrium.Alpha_violation _ -> assert false (* basic games only *));

  (* 5. Best-response dynamics: agents swap until no one can improve. *)
  let result = Dynamics.run (Dynamics.default_config Game.Sum) g in
  pf "\ndynamics: %s after %d rounds / %d moves\n"
    (Exp_common.outcome_name result.Dynamics.outcome)
    result.Dynamics.rounds result.Dynamics.moves;
  let final = result.Dynamics.final in
  pf "final network: diameter %s, %d links\n"
    (match Metrics.diameter final with Some d -> string_of_int d | None -> "inf")
    (Graph.m final);
  pf "is a verified sum equilibrium: %b\n" (Equilibrium.is_equilibrium Game.Sum final);
  pf "is a star (Theorem 1 says equilibrium trees must be): %b\n"
    (Tree_eq.is_star final);

  (* 6. Every graph serializes to graph6 for the CLI and external tools. *)
  pf "\nfinal graph6: %s  (inspect with: bncg info <string>)\n"
    (Graph6.encode final)
