let e18_lemma_audit ?(seeds = 20) () =
  let t =
    Table.create ~title:"E18: audit of the omitted lemma proofs (Lemmas 6-8)"
      ~columns:
        [
          ("graph", Table.Left);
          ("n", Table.Right);
          ("Lemma 6", Table.Left);
          ("Lemma 7", Table.Left);
          ("Lemma 8", Table.Left);
        ]
  in
  let cell = function
    | None -> "holds"
    | Some v -> "VIOLATED: " ^ v.Lemmas.description
  in
  let row name g =
    Table.add_row t
      [
        name;
        Table.cell_int (Graph.n g);
        cell (Lemmas.check_lemma6 g);
        cell (Lemmas.check_lemma7 g);
        cell (Lemmas.check_lemma8 g);
      ]
  in
  row "Figure 3 graph" Constructions.theorem5_graph;
  row "Petersen + pendant" Constructions.sum_diameter3_witness;
  row "minimal n=8 witness" Constructions.sum_diameter3_minimal;
  row "hypercube Q4" (Generators.hypercube 4);
  row "polarity ER_3" (Polarity.polarity_graph 3);
  row "torus k=3" (Constructions.torus 3);
  let all_random_hold = ref true in
  for seed = 1 to seeds do
    let rng = Prng.create seed in
    let g = Random_graphs.connected_gnm rng (8 + Prng.int rng 6) 20 in
    if
      Lemmas.check_lemma6 g <> None
      || Lemmas.check_lemma7 g <> None
      || Lemmas.check_lemma8 g <> None
    then all_random_hold := false
  done;
  Table.add_row t
    [
      Printf.sprintf "%d random G(n,20), n in 8..13" seeds;
      "-";
      Table.cell_bool !all_random_hold;
      Table.cell_bool !all_random_hold;
      Table.cell_bool !all_random_hold;
    ];
  Table.print t;
  let t2 =
    Table.create
      ~title:"E18b: the Theorem 5 proof, case by case, on the literal Figure 3 graph"
      ~columns:[ ("proof case", Table.Left); ("status", Table.Left) ]
  in
  List.iter
    (fun (name, ok) -> Table.add_row t2 [ name; (if ok then "holds" else "FAILS") ])
    (Lemmas.theorem5_case_analysis ());
  Table.print t2;
  print_endline
    "  The lemmas themselves are correct everywhere; the proof's only gap is the\n\
    \  collector-to-matched-partner swap, where Lemma 8's strong (+2) branch was\n\
    \  applied although the swap target is adjacent to the dropped vertex.\n"

let e19_spectral_profile () =
  let t =
    Table.create
      ~title:
        "E19: spectral profiles — equilibria are expander-like, the torus is the anti-expander"
      ~columns:
        [
          ("graph", Table.Left);
          ("n", Table.Right);
          ("diameter", Table.Right);
          ("fiedler l2(L)", Table.Right);
          ("l2(A) (regular)", Table.Left);
          ("Chung bound", Table.Left);
        ]
  in
  let row name g =
    let lambda2 =
      if Graph.is_regular g then
        Table.cell_float ~digits:3 (Spectral.second_adjacency_eigenvalue g)
      else "n/a"
    in
    let bound =
      match Spectral.spectral_diameter_bound g with
      | Some b -> Table.cell_float ~digits:0 b
      | None -> "degenerate"
    in
    Table.add_row t
      [
        name;
        Table.cell_int (Graph.n g);
        Exp_common.diameter_cell g;
        Table.cell_float ~digits:3 (Spectral.algebraic_connectivity g);
        lambda2;
        bound;
      ]
  in
  row "star n=32" (Generators.star 32);
  row "Petersen" (Generators.petersen ());
  row "Petersen + pendant" Constructions.sum_diameter3_witness;
  row "minimal n=8 witness" Constructions.sum_diameter3_minimal;
  row "polarity ER_5" (Polarity.polarity_graph 5);
  let rng = Prng.create 21 in
  row "sum eq (from G(48,96))"
    (Dynamics.run ~rng (Dynamics.default_config Game.Sum) (Random_graphs.connected_gnm rng 48 96)).Dynamics.final;
  row "torus k=4" (Constructions.torus 4);
  row "torus k=8" (Constructions.torus 8);
  row "cycle C64" (Generators.cycle 64);
  Table.print t;
  print_endline
    "  Reading: every verified sum equilibrium has a large spectral gap relative to\n\
    \  its size (small-diameter, expander-like), while the max-version torus and the\n\
    \  cycle have vanishing Fiedler values — the spectral face of the sum/max\n\
    \  diameter separation (Theorems 9 vs 12).\n"
