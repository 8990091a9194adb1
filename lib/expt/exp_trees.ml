let e1_sum_tree_census ?(max_n = 8) () =
  let t =
    Table.create ~title:"E1 (Theorem 1): sum-equilibrium trees are exactly the stars"
      ~columns:
        [
          ("n", Table.Right);
          ("labeled trees", Table.Right);
          ("sum equilibria", Table.Right);
          ("stars", Table.Right);
          ("eq = stars", Table.Left);
          ("max eq diameter", Table.Right);
          ("non-eq witnesses verified", Table.Right);
        ]
  in
  for n = 3 to max_n do
    let c = Census.tree_census ~pool:(Exp_common.pool ()) Game.Sum n in
    Table.add_row t
      [
        Table.cell_int n;
        Table.cell_int c.Census.total;
        Table.cell_int c.Census.equilibria;
        Table.cell_int c.Census.stars;
        Table.cell_bool (c.Census.equilibria = c.Census.stars && c.Census.stars = n);
        Table.cell_int c.Census.max_eq_diameter;
        Table.cell_int c.Census.witnesses_verified;
      ]
  done;
  Table.print t

let e1b_trees_at_scale ?(sizes = [ 64; 128; 256 ]) () =
  let t =
    Table.create
      ~title:
        "E1b (Theorem 1 at scale): tree best-response via the O(1)-per-swap evaluator"
      ~columns:
        [
          ("n", Table.Right);
          ("start", Table.Left);
          ("moves to converge", Table.Right);
          ("final is a star", Table.Left);
          ("final diameter", Table.Right);
        ]
  in
  List.iter
    (fun n ->
      List.iter
        (fun (name, make) ->
          let g = make n in
          let final, moves = Tree_opt.converge Game.Sum g in
          Table.add_row t
            [
              Table.cell_int n;
              name;
              Table.cell_int moves;
              Table.cell_bool (Tree_eq.is_star final);
              Exp_common.diameter_cell final;
            ])
        [
          ("random tree", fun n -> Random_graphs.tree (Prng.create n) n);
          ("path", Generators.path);
        ])
    sizes;
  Table.print t;
  (* the max version at scale: Theorem 4's diameter-3 ceiling *)
  let t2 =
    Table.create
      ~title:"E2c (Theorem 4 at scale): max-version tree best-response via the O(1) evaluator"
      ~columns:
        [
          ("n", Table.Right);
          ("moves to converge", Table.Right);
          ("final diameter (<= 3)", Table.Right);
          ("final is star or double star", Table.Left);
        ]
  in
  List.iter
    (fun n ->
      let g = Random_graphs.tree (Prng.create (2 * n)) n in
      let final, moves = Tree_opt.converge Game.Max g in
      Table.add_row t2
        [
          Table.cell_int n;
          Table.cell_int moves;
          Exp_common.diameter_cell final;
          Table.cell_bool (Tree_eq.is_star final || Tree_eq.is_double_star final);
        ])
    sizes;
  Table.print t2

let e2_max_tree_census ?(max_n = 8) () =
  let t =
    Table.create
      ~title:"E2 (Theorem 4): max-equilibrium trees are stars and double stars (diameter <= 3)"
      ~columns:
        [
          ("n", Table.Right);
          ("labeled trees", Table.Right);
          ("max equilibria", Table.Right);
          ("stars", Table.Right);
          ("double stars", Table.Right);
          ("eq = stars + double stars", Table.Left);
          ("max eq diameter", Table.Right);
        ]
  in
  for n = 3 to max_n do
    let c = Census.tree_census ~pool:(Exp_common.pool ()) Game.Max n in
    Table.add_row t
      [
        Table.cell_int n;
        Table.cell_int c.Census.total;
        Table.cell_int c.Census.equilibria;
        Table.cell_int c.Census.stars;
        Table.cell_int c.Census.double_stars;
        Table.cell_bool (c.Census.equilibria = c.Census.stars + c.Census.double_stars);
        Table.cell_int c.Census.max_eq_diameter;
      ]
  done;
  Table.print t

let e2b_double_star_family ?(max_arm = 5) () =
  let t =
    Table.create
      ~title:"E2b (Figure 2): double_star(a, b) is a max equilibrium iff min(a, b) >= 2"
      ~columns:
        [
          ("a", Table.Right);
          ("b", Table.Right);
          ("n", Table.Right);
          ("diameter", Table.Right);
          ("max equilibrium", Table.Left);
          ("matches min(a,b) >= 2", Table.Left);
        ]
  in
  for a = 1 to max_arm do
    for b = a to max_arm do
      let g = Generators.double_star a b in
      let eq = Equilibrium.is_equilibrium Game.Max g in
      Table.add_row t
        [
          Table.cell_int a;
          Table.cell_int b;
          Table.cell_int (Graph.n g);
          Exp_common.diameter_cell g;
          Table.cell_bool eq;
          Table.cell_bool (eq = (min a b >= 2));
        ]
    done
  done;
  Table.print t
