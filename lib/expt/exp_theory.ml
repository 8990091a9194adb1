let e13_lemma10_corollary11 () =
  let t =
    Table.create
      ~title:
        "E13 (Lemma 10, Corollary 11): constructive checks on verified sum equilibria"
      ~columns:
        [
          ("graph", Table.Left);
          ("n", Table.Right);
          ("sum eq", Table.Left);
          ("Lemma 10 holds for all u", Table.Left);
          ("max add-gain", Table.Right);
          ("5 n lg n", Table.Right);
          ("within budget", Table.Left);
        ]
  in
  let row name g =
    let n = Graph.n g in
    let eq = Equilibrium.is_equilibrium Game.Sum g in
    let lemma10_all =
      let ok = ref true in
      for u = 0 to n - 1 do
        if Theory.lemma10_check g u = None then ok := false
      done;
      !ok
    in
    let gain = Theory.corollary11_max_gain g in
    let budget = Theory.corollary11_budget n in
    Table.add_row t
      [
        name;
        Table.cell_int n;
        Table.cell_bool eq;
        Table.cell_bool lemma10_all;
        Table.cell_int gain;
        Table.cell_float ~digits:1 budget;
        Table.cell_bool (float_of_int gain <= budget);
      ]
  in
  row "star n=24" (Generators.star 24);
  row "Petersen + pendant" Constructions.sum_diameter3_witness;
  row "polarity ER_3" (Polarity.polarity_graph 3);
  row "polarity ER_5" (Polarity.polarity_graph 5);
  let rng = Prng.create 9 in
  row "sum eq (from tree n=32)"
    (Dynamics.run ~rng (Dynamics.default_config Game.Sum) (Random_graphs.tree rng 32)).Dynamics.final;
  row "sum eq (from G(48,96))"
    (Dynamics.run ~rng (Dynamics.default_config Game.Sum) (Random_graphs.connected_gnm rng 48 96)).Dynamics.final;
  Table.print t
