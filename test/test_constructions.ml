open Test_helpers

(* --- Theorem 5 ------------------------------------------------------ *)

let test_theorem5_structure () =
  let g = Constructions.theorem5_graph in
  check_int "n" 13 (Graph.n g);
  check_int "m" 21 (Graph.m g);
  Alcotest.(check (option int)) "diameter 3" (Some 3) (Metrics.diameter g);
  Alcotest.(check (option int)) "girth 4" (Some 4) (Metrics.girth g);
  check_true "connected" (Components.is_connected g)

let test_theorem5_roles () =
  for v = 0 to 12 do
    check_int "role roundtrip" v (Constructions.theorem5_vertex (Constructions.theorem5_role v))
  done;
  (* hub adjacent to exactly the branches *)
  let hub = Constructions.theorem5_vertex Constructions.Hub in
  check_int "hub degree" 3 (Graph.degree Constructions.theorem5_graph hub)

let test_theorem5_local_diameters () =
  (* the proof's claim: a, b_i, d_i have local diameter 3; c_{i,k} have 2 *)
  let g = Constructions.theorem5_graph in
  for v = 0 to 12 do
    let expected =
      match Constructions.theorem5_role v with
      | Constructions.Hub | Constructions.Branch _ | Constructions.Collector _ -> 3
      | Constructions.Cluster _ -> 2
    in
    Alcotest.(check (option int)) "local diameter" (Some expected) (Metrics.local_diameter g v)
  done

let test_theorem5_reproduction_finding () =
  (* the literal construction admits exactly the documented improving swap *)
  let g = Constructions.theorem5_graph in
  let w = Bfs.create_workspace 13 in
  check_int "documented swap improves by 1" (-1)
    (Swap.delta w Game.Sum g Constructions.theorem5_improving_swap);
  check_false "hence not a sum equilibrium" (Equilibrium.is_equilibrium Game.Sum g)

let test_theorem5_variants_all_fail () =
  (* both iso classes of the matching triangle admit an improving swap *)
  List.iter
    (fun crossed ->
      let g = Constructions.theorem5_variant ~crossed in
      check_int "13 vertices" 13 (Graph.n g);
      check_int "21 edges" 21 (Graph.m g);
      check_false "not a sum equilibrium" (Equilibrium.is_equilibrium Game.Sum g))
    [
      (false, false, false);
      (false, false, true);
      (true, true, false);
      (true, true, true);
    ];
  (* girth depends only on the parity of crossings *)
  Alcotest.(check (option int)) "even parity girth 3" (Some 3)
    (Metrics.girth (Constructions.theorem5_variant ~crossed:(false, false, false)));
  Alcotest.(check (option int)) "odd parity girth 4" (Some 4)
    (Metrics.girth (Constructions.theorem5_variant ~crossed:(false, false, true)));
  check_true "paper wiring = default"
    (Graph.equal Constructions.theorem5_graph
       (Constructions.theorem5_variant ~crossed:(false, false, true)))

let test_diameter3_witness () =
  let g = Constructions.sum_diameter3_witness in
  check_int "n" 11 (Graph.n g);
  Alcotest.(check (option int)) "diameter 3" (Some 3) (Metrics.diameter g);
  check_true "verified sum equilibrium" (Equilibrium.is_equilibrium Game.Sum g)

let test_cycle_with_pendant_not_eq () =
  check_false "C5+pendant" (Equilibrium.is_equilibrium Game.Sum (Constructions.cycle_with_pendant 5));
  check_false "C7+pendant" (Equilibrium.is_equilibrium Game.Sum (Constructions.cycle_with_pendant 7))

let test_max_diameter4_small () =
  let g = Constructions.max_diameter4_small in
  check_int "n" 10 (Graph.n g);
  check_int "m" 10 (Graph.m g);
  Alcotest.(check (option int)) "diameter 4" (Some 4) (Metrics.diameter g);
  check_true "max equilibrium" (Equilibrium.is_equilibrium Game.Max g);
  check_true "is the 5-sunlet" (Canon.isomorphic g (Generators.sunlet 5))

let test_sunlet_equilibrium_pattern () =
  (* exactly the 3-, 5-, 7-sunlets are max equilibria *)
  List.iter
    (fun (k, expected) ->
      check_bool
        (Printf.sprintf "%d-sunlet" k)
        expected
        (Equilibrium.is_equilibrium Game.Max (Generators.sunlet k)))
    [ (3, true); (4, false); (5, true); (6, false); (7, true); (8, false); (9, false) ]

(* --- Theorem 12 torus ------------------------------------------------ *)

let test_torus_structure () =
  List.iter
    (fun k ->
      let g = Constructions.torus k in
      check_int "n = 2k^2" (2 * k * k) (Graph.n g);
      check_true "4-regular" (Graph.is_regular g && Graph.max_degree g = 4);
      check_int "m" (4 * k * k) (Graph.m g);
      Alcotest.(check (option int)) "diameter k" (Some k) (Metrics.diameter g))
    [ 2; 3; 4; 5 ]

let test_torus_coords_roundtrip () =
  let k = 4 in
  for v = 0 to (2 * k * k) - 1 do
    let i, j = Constructions.torus_coords k v in
    check_int "parity even" 0 ((i + j) mod 2);
    check_int "roundtrip" v (Constructions.torus_vertex k (i, j))
  done

let test_torus_vertex_wraps () =
  let k = 3 in
  check_int "wrap i" (Constructions.torus_vertex k (0, 2)) (Constructions.torus_vertex k (6, 2));
  check_int "wrap negative" (Constructions.torus_vertex k (5, 1)) (Constructions.torus_vertex k (-1, 1));
  Alcotest.check_raises "odd parity rejected"
    (Invalid_argument "Constructions.torus_vertex: odd-parity point") (fun () ->
      ignore (Constructions.torus_vertex k (0, 1)))

let test_torus_distance_formula () =
  List.iter
    (fun k ->
      check_true "formula matches BFS"
        (Metrics.is_distance_formula (Constructions.torus k) (Constructions.torus_distance k)))
    [ 2; 3; 5 ]

let test_torus_equilibrium () =
  List.iter
    (fun k ->
      let g = Constructions.torus k in
      check_true "deletion-critical" (Equilibrium.is_deletion_critical g);
      check_true "insertion-stable" (Equilibrium.is_insertion_stable g);
      check_true "max equilibrium" (Equilibrium.is_equilibrium Game.Max g))
    [ 2; 3; 4 ]

let test_torus_vertex_transitive () =
  check_true "k=2 vertex-transitive" (Canon.is_vertex_transitive (Constructions.torus 2))

let test_torus_local_diameter_k () =
  let k = 4 in
  let g = Constructions.torus k in
  match Metrics.eccentricities g with
  | Some e -> Array.iter (fun ecc -> check_int "every vertex ecc = k" k ecc) e
  | None -> Alcotest.fail "connected"

let test_torus_rejects_small_k () =
  Alcotest.check_raises "k >= 2" (Invalid_argument "Constructions.torus: need k >= 2")
    (fun () -> ignore (Constructions.torus 1))

(* --- d-dimensional generalization ------------------------------------ *)

let test_torus_d_matches_2d () =
  let k = 3 in
  let a = Constructions.torus_d ~dim:2 k and b = Constructions.torus k in
  check_int "same n" (Graph.n b) (Graph.n a);
  check_int "same m" (Graph.m b) (Graph.m a);
  check_true "same diameter" (Metrics.diameter a = Metrics.diameter b)

let test_torus_d_structure () =
  List.iter
    (fun (dim, k) ->
      let g = Constructions.torus_d ~dim k in
      let rec pow b e = if e = 0 then 1 else b * pow b (e - 1) in
      check_int "n = 2k^dim" (2 * pow k dim) (Graph.n g);
      check_true "2^dim-regular"
        (Graph.is_regular g && Graph.max_degree g = pow 2 dim);
      Alcotest.(check (option int)) "diameter k" (Some k) (Metrics.diameter g);
      check_true "distance formula"
        (Metrics.is_distance_formula g (Constructions.torus_d_distance ~dim k)))
    [ (1, 4); (2, 3); (3, 2); (3, 3); (4, 2) ]

let test_torus_d_coords_roundtrip () =
  let dim = 3 and k = 2 in
  for v = 0 to 15 do
    let c = Constructions.torus_d_coords ~dim k v in
    let p = c.(0) mod 2 in
    Array.iter (fun x -> check_int "uniform parity" p (x mod 2)) c
  done

let test_torus_d_insertion_stability () =
  (* dim-dimensional torus stable under dim-1 insertions *)
  check_true "dim 3 stable under 2"
    (Equilibrium.is_stable_under_insertions (Constructions.torus_d ~dim:3 2) ~k:2);
  check_true "dim 3 (k=3) stable under 2"
    (Equilibrium.is_stable_under_insertions (Constructions.torus_d ~dim:3 3) ~k:2)

(* --- misc ------------------------------------------------------------- *)

let test_nonexample_reexport () =
  let g = Constructions.conjecture14_nonexample ~arms:3 ~arm_len:4 ~blob:5 in
  check_true "connected" (Components.is_connected g);
  check_int "n" (1 + (3 * 9)) (Graph.n g)

let suite =
  [
    case "theorem5 structure" test_theorem5_structure;
    case "theorem5 roles" test_theorem5_roles;
    case "theorem5 local diameters" test_theorem5_local_diameters;
    case "theorem5 reproduction finding" test_theorem5_reproduction_finding;
    case "theorem5 variants all fail" test_theorem5_variants_all_fail;
    case "diameter-3 witness" test_diameter3_witness;
    case "cycle+pendant not equilibrium" test_cycle_with_pendant_not_eq;
    case "5-sunlet max diameter-4 witness" test_max_diameter4_small;
    case "sunlet equilibrium pattern" test_sunlet_equilibrium_pattern;
    case "torus structure" test_torus_structure;
    case "torus coords roundtrip" test_torus_coords_roundtrip;
    case "torus vertex wrapping" test_torus_vertex_wraps;
    case "torus distance formula" test_torus_distance_formula;
    case "torus equilibrium" test_torus_equilibrium;
    case "torus vertex-transitive" test_torus_vertex_transitive;
    case "torus local diameters" test_torus_local_diameter_k;
    case "torus rejects k < 2" test_torus_rejects_small_k;
    case "torus_d dim=2 matches torus" test_torus_d_matches_2d;
    case "torus_d structure" test_torus_d_structure;
    case "torus_d coords parity" test_torus_d_coords_roundtrip;
    case "torus_d insertion stability" test_torus_d_insertion_stability;
    case "conjecture 14 non-example" test_nonexample_reexport;
  ]
