(* The Theorem 12 construction (Figure 4): a max equilibrium whose diameter
   grows as sqrt(n).

     dune exec examples/torus_stability.exe

   Rebuilds the 45-degree-rotated torus, draws the distance contours of
   Figure 4 in ASCII, and verifies every property the proof claims:
   the closed-form distance oracle, uniform local diameters, vertex
   transitivity (via its Cayley-graph presentation), deletion-criticality
   and insertion-stability. *)

let pf = Printf.printf

let () =
  let k = 5 in
  let g = Constructions.torus k in
  pf "torus k=%d: n = 2k^2 = %d vertices, m = %d edges, 4-regular\n" k (Graph.n g)
    (Graph.m g);

  (* Figure 4: distance contours from the central point (k, k). *)
  let center = Constructions.torus_vertex k (k, k) in
  let ws = Bfs.create_workspace (Graph.n g) in
  Bfs.run ws g center;
  pf "\ndistance contours from (%d, %d) — Figure 4:\n\n" k k;
  for j = (2 * k) - 1 downto 0 do
    pf "  ";
    for i = 0 to (2 * k) - 1 do
      if (i + j) mod 2 = 0 then
        pf "%2d" (Bfs.dist ws (Constructions.torus_vertex k (i, j)))
      else pf "  "
    done;
    pf "\n"
  done;

  (* the proof's distance formula: max of the two circular coordinates *)
  pf "\nclosed-form oracle agrees with BFS on all pairs: %b\n"
    (Metrics.is_distance_formula g (Constructions.torus_distance k));

  (* local diameter of every vertex is exactly k *)
  (match Metrics.eccentricities g with
  | Some e ->
    pf "every agent's local diameter = k = %d: %b\n" k
      (Array.for_all (fun x -> x = k) e)
  | None -> assert false);

  (* the three stability properties of the proof *)
  pf "deletion-critical (every deletion strictly hurts both endpoints): %b\n"
    (Equilibrium.is_deletion_critical g);
  pf "insertion-stable (no single insertion helps either endpoint): %b\n"
    (Equilibrium.is_insertion_stable g);
  pf "full max equilibrium (exhaustive swap + deletion scan): %b\n"
    (Equilibrium.is_equilibrium Game.Max g);

  (* diameter = sqrt(n/2), the headline lower bound *)
  pf "\ndiameter %s = sqrt(n/2) = %.1f  — Theta(sqrt n), Theorem 12\n"
    (match Metrics.diameter g with Some d -> string_of_int d | None -> "inf")
    (sqrt (float_of_int (Graph.n g) /. 2.0));

  (* the d-dimensional generalization trades diameter against the number of
     simultaneous changes an agent can weigh (Section 4) *)
  pf "\nd-dimensional generalization (stable under < dim simultaneous insertions):\n";
  List.iter
    (fun (dim, kk) ->
      let gd = Constructions.torus_d ~dim kk in
      pf "  dim=%d k=%d: n=%3d diameter=%d stable under %d insertions: %b\n" dim kk
        (Graph.n gd)
        (match Metrics.diameter gd with Some d -> d | None -> -1)
        (dim - 1)
        (Equilibrium.is_stable_under_insertions gd ~k:(dim - 1)))
    [ (2, 4); (3, 2); (3, 3); (4, 2) ]
