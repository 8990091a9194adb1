let e9_theorem13_pipeline () =
  let t =
    Table.create
      ~title:
        "E9 (Theorem 13): graph powers coalesce distances — diam(G^x) = ceil(d/x), uniformity of the power"
      ~columns:
        [
          ("graph", Table.Left);
          ("n", Table.Right);
          ("diam d", Table.Right);
          ("2 lg n", Table.Right);
          ("x", Table.Right);
          ("diam(G^x)", Table.Right);
          ("ceil(d/x)", Table.Right);
          ("eps almost-uniform(G^x)", Table.Right);
          ("r", Table.Right);
        ]
  in
  let row name g x =
    let d = Option.get (Metrics.diameter g) in
    let rep = Distance_uniform.power_report g ~x in
    Table.add_row t
      [
        name;
        Table.cell_int (Graph.n g);
        Table.cell_int d;
        Table.cell_float ~digits:1 (2.0 *. Theory.lg (Graph.n g));
        Table.cell_int x;
        Table.cell_int rep.Distance_uniform.diameter;
        Table.cell_int ((d + x - 1) / x);
        Table.cell_float ~digits:3 rep.Distance_uniform.almost.Distance_uniform.epsilon;
        Table.cell_int rep.Distance_uniform.almost.Distance_uniform.r;
      ]
  in
  (* equilibria from dynamics *)
  let rng = Prng.create 3 in
  let eq1 =
    (Dynamics.run ~rng (Dynamics.default_config Game.Sum) (Random_graphs.tree rng 32)).Dynamics.final
  in
  let eq2 =
    (Dynamics.run ~rng (Dynamics.default_config Game.Sum) (Random_graphs.connected_gnm rng 48 96)).Dynamics.final
  in
  row "sum eq (from tree, n=32)" eq1 1;
  row "sum eq (from G(48,96))" eq2 1;
  (* high-diameter hosts: the coalescing the proof uses *)
  List.iter (fun x -> row "cycle C48" (Generators.cycle 48) x) [ 2; 3; 4; 6 ];
  List.iter (fun x -> row "torus k=6" (Constructions.torus 6) x) [ 2; 3 ];
  row "path P33" (Generators.path 33) 4;
  Table.print t

let e10_cayley_uniformity () =
  let t =
    Table.create
      ~title:
        "E10 (Theorem 15): epsilon-distance-uniform Abelian Cayley graphs have diameter O(lg n / lg(1/eps))"
      ~columns:
        [
          ("family", Table.Left);
          ("n", Table.Right);
          ("diameter", Table.Right);
          ("best r", Table.Right);
          ("epsilon", Table.Right);
          ("eps < 1/4", Table.Left);
          ("thm 15 bound", Table.Left);
          ("diam <= bound", Table.Left);
        ]
  in
  let row name g =
    let d = Option.get (Metrics.diameter g) in
    let p = Distance_uniform.best_uniform g in
    let eps = p.Distance_uniform.epsilon in
    let applicable = eps > 0.0 && eps < 0.25 in
    let bound = if applicable then Some (Theory.theorem15_bound ~n:(Graph.n g) ~epsilon:eps) else None in
    Table.add_row t
      [
        name;
        Table.cell_int (Graph.n g);
        Table.cell_int d;
        Table.cell_int p.Distance_uniform.r;
        Table.cell_float ~digits:3 eps;
        Table.cell_bool applicable;
        (match bound with Some b -> Table.cell_float ~digits:1 b | None -> "n/a");
        (match bound with
         | Some b -> Table.cell_bool (float_of_int d <= b)
         | None -> "vacuous");
      ]
  in
  row "complete K32" (Generators.complete 32);
  row "complete K64" (Generators.complete 64);
  row "K16,16" (Generators.complete_bipartite 16 16);
  row "circulant(64; 1..8)" (Generators.circulant 64 [ 1; 2; 3; 4; 5; 6; 7; 8 ]);
  row "circulant(63; 1,5,25)" (Generators.circulant 63 [ 1; 5; 25 ]);
  row "hypercube Q8" (Generators.hypercube 8);
  row "hypercube Q10" (Generators.hypercube 10);
  row "cycle C64" (Generators.cycle 64);
  row "torus k=6" (Constructions.torus 6);
  row "torus k=8" (Constructions.torus 8);
  Table.print t;
  print_endline
    "  Reading: every family with measured eps < 1/4 respects the Theorem 15 diameter\n\
    \  bound; the high-diameter families (cycles, tori) all have eps >= 1/4, consistent\n\
    \  with Conjecture 14 (no high-diameter distance-uniform graphs).\n"

let e14_conjecture14_probe () =
  let t =
    Table.create
      ~title:
        "E14 (Conjecture 14): pairwise concentration is not per-vertex uniformity (path-with-blobs)"
      ~columns:
        [
          ("arms", Table.Right);
          ("arm len", Table.Right);
          ("blob", Table.Right);
          ("n", Table.Right);
          ("diameter", Table.Right);
          ("modal dist", Table.Right);
          ("pairs at mode", Table.Right);
          ("per-vertex eps (almost)", Table.Right);
        ]
  in
  List.iter
    (fun (arms, arm_len, blob) ->
      let g = Generators.path_with_blobs ~arms ~arm_len ~blob in
      let mode, frac = Distance_uniform.pairwise_modal_fraction g in
      let p = Distance_uniform.best_almost_uniform g in
      Table.add_row t
        [
          Table.cell_int arms;
          Table.cell_int arm_len;
          Table.cell_int blob;
          Table.cell_int (Graph.n g);
          Exp_common.diameter_cell g;
          Table.cell_int mode;
          Table.cell_float ~digits:3 frac;
          Table.cell_float ~digits:3 p.Distance_uniform.epsilon;
        ])
    [ (4, 6, 12); (6, 8, 24); (8, 10, 40); (4, 16, 48) ];
  Table.print t;
  let t2 =
    Table.create
      ~title:"E14b (Theorem 13 proof, first claim): skew-triple fractions on sum equilibria"
      ~columns:
        [
          ("graph", Table.Left);
          ("n", Table.Right);
          ("p", Table.Right);
          ("skew fraction", Table.Right);
          ("proof budget 4/p", Table.Right);
        ]
  in
  let rng = Prng.create 5 in
  let eq =
    (Dynamics.run ~rng (Dynamics.default_config Game.Sum) (Random_graphs.connected_gnm rng 40 80)).Dynamics.final
  in
  List.iter
    (fun p ->
      let f = Distance_uniform.skew_triple_fraction eq ~p in
      Table.add_row t2
        [
          "sum eq (n=40)";
          Table.cell_int (Graph.n eq);
          Table.cell_float ~digits:1 p;
          Table.cell_float ~digits:4 f;
          Table.cell_float ~digits:3 (4.0 /. p);
        ])
    [ 0.5; 1.0; 2.0; 4.0 ];
  Table.print t2
