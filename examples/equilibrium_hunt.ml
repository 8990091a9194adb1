(* Hunting for extremal equilibria (the Theorem 5 / Theorem 9 gap).

     dune exec examples/equilibrium_hunt.exe

   The paper's sum-side frontier: equilibria of diameter 3 exist
   (Theorem 5), the upper bound is 2^O(sqrt lg n) (Theorem 9), and nothing
   in between is known. This example drives the annealing hunter at the
   interesting sizes, profiles what it finds, and shows the diameter-4
   search stalling a few violating agents short — the open problem in
   experimental form. *)

let pf = Printf.printf

let () =
  pf "hunting diameter-3 sum equilibria (exhaustive census: none exist for n <= 7)\n\n";
  List.iter
    (fun n ->
      let rng = Prng.create (40 + n) in
      let r = Hunt.hunt_sum_diameter rng ~n ~target_diameter:3 ~steps:4000 () in
      match r.Hunt.found with
      | Some g ->
        pf "  n=%2d: found %-14s m=%2d girth=%s verified=%b\n" n (Graph6.encode g)
          (Graph.m g)
          (match Metrics.girth g with Some x -> string_of_int x | None -> "-")
          (Equilibrium.is_equilibrium Game.Sum g)
      | None ->
        pf "  n=%2d: nothing (best candidate had %d violating agents)\n" n
          r.Hunt.best_violations)
    [ 7; 8; 9; 10 ];

  (* profile the canonical minimal witness *)
  let g = Constructions.sum_diameter3_minimal in
  pf "\nthe minimal witness (n=8, graph6 %s):\n" (Graph6.encode g);
  pf "  edges: %s\n"
    (String.concat " "
       (List.map (fun (u, v) -> Printf.sprintf "%d-%d" u v) (Graph.edges g)));
  pf "  degree sequence: %s, automorphisms: %d\n"
    (String.concat ","
       (Array.to_list (Array.map string_of_int (Graph.degree_sequence g))))
    (Canon.automorphism_count g);
  let b = Centrality.betweenness g in
  pf "  betweenness spread: %.2f (not vertex-transitive, unlike the torus)\n"
    (Centrality.spread b);
  pf "  2-swap stable: %b (falls to coordinated two-edge deviations — E16)\n"
    (Equilibrium.is_stable_under_k_swaps Game.Sum g ~k:2);

  (* the open frontier *)
  pf "\ndiameter-4 frontier (no example known in the literature):\n";
  List.iter
    (fun n ->
      let rng = Prng.create 99 in
      let r = Hunt.hunt_sum_diameter rng ~n ~target_diameter:4 ~steps:3000 () in
      pf "  n=%2d: %s\n" n
        (match r.Hunt.found with
        | Some g -> "FOUND (!) " ^ Graph6.encode g
        | None ->
          Printf.sprintf "no — best candidate %d violating agents (of %d scored)"
            r.Hunt.best_violations r.Hunt.evaluated))
    [ 12; 14 ];
  pf "\nif a run ever prints FOUND, the graph6 string is a checkable certificate:\n";
  pf "  dune exec bin/main.exe -- check --game sum <graph6>\n"
