let e5_torus_sweep ?(max_k = 10) () =
  let t =
    Table.create
      ~title:
        "E5 (Theorem 12, Figure 4): rotated-torus max equilibria of diameter sqrt(n/2)"
      ~columns:
        [
          ("k", Table.Right);
          ("n = 2k^2", Table.Right);
          ("m", Table.Right);
          ("diameter", Table.Right);
          ("sqrt(n/2)", Table.Right);
          ("oracle = BFS", Table.Left);
          ("deletion-critical", Table.Left);
          ("insertion-stable", Table.Left);
          ("max equilibrium", Table.Left);
        ]
  in
  for k = 2 to max_k do
    let g = Constructions.torus k in
    let full = Graph.n g <= 300 in
    let cell_checked b = if full then Table.cell_bool b else Table.cell_bool b ^ " (sampled)" in
    let del_crit = Equilibrium.is_deletion_critical g in
    let ins_stable =
      if full then Equilibrium.is_insertion_stable g
      else Equilibrium.find_insertion_violation g = None
    in
    let max_eq =
      if full then Equilibrium.is_equilibrium Game.Max g
      else del_crit && ins_stable
    in
    Table.add_row t
      [
        Table.cell_int k;
        Table.cell_int (Graph.n g);
        Table.cell_int (Graph.m g);
        Exp_common.diameter_cell g;
        Table.cell_float ~digits:1 (sqrt (float_of_int (Graph.n g) /. 2.0));
        Table.cell_bool (Metrics.is_distance_formula g (Constructions.torus_distance k));
        Table.cell_bool del_crit;
        Table.cell_bool ins_stable;
        cell_checked max_eq;
      ]
  done;
  Table.print t

let default_cases = [ (2, 3); (2, 5); (2, 7); (3, 2); (3, 3); (4, 2) ]

let e6_torus_dimensions ?(cases = default_cases) () =
  let t =
    Table.create
      ~title:
        "E6 (Section 4): d-dimensional tori — diameter (n/2)^(1/d), stable under < d insertions"
      ~columns:
        [
          ("dim", Table.Right);
          ("k", Table.Right);
          ("n = 2k^dim", Table.Right);
          ("diameter", Table.Right);
          ("(n/2)^(1/dim)", Table.Right);
          ("oracle = BFS", Table.Left);
          ("deletion-critical", Table.Left);
          ("stable +(dim-1) insertions", Table.Left);
        ]
  in
  List.iter
    (fun (dim, k) ->
      let g = Constructions.torus_d ~dim k in
      Table.add_row t
        [
          Table.cell_int dim;
          Table.cell_int k;
          Table.cell_int (Graph.n g);
          Exp_common.diameter_cell g;
          Table.cell_float ~digits:2 (Theory.max_lower_bound_diameter ~dim (Graph.n g));
          Table.cell_bool
            (Metrics.is_distance_formula g (Constructions.torus_d_distance ~dim k));
          Table.cell_bool (Equilibrium.is_deletion_critical g);
          Table.cell_bool (Equilibrium.is_stable_under_insertions g ~k:(dim - 1));
        ])
    cases;
  Table.print t
