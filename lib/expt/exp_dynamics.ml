type run_stats = {
  converged : int;
  total : int;
  rounds : int array;
  diameters : int array;
  eq_verified : int;
  spread_ok : int;  (* Lemma 2, max version *)
  lemma3_ok : int;
}

let collect game sizes seed_count init =
  List.map
    (fun n ->
      let runs =
        Array.map
          (fun seed ->
            let rng = Prng.create seed in
            let g = init rng n in
            Dynamics.run ~rng (Dynamics.default_config game) g)
          (Exp_common.seeds seed_count)
      in
      let converged =
        Array.to_list runs |> List.filter (fun r -> r.Dynamics.outcome = Dynamics.Converged)
      in
      let eq_verified =
        List.length
          (List.filter
             (fun r -> Equilibrium.is_equilibrium game r.Dynamics.final)
             converged)
      in
      let spread_ok =
        List.length
          (List.filter
             (fun r -> Equilibrium.eccentricity_spread r.Dynamics.final = Some 0
                       || Equilibrium.eccentricity_spread r.Dynamics.final = Some 1)
             converged)
      in
      let lemma3_ok =
        List.length (List.filter (fun r -> Equilibrium.lemma3_holds r.Dynamics.final) converged)
      in
      ( n,
        {
          converged = List.length converged;
          total = Array.length runs;
          rounds = Array.of_list (List.map (fun r -> r.Dynamics.rounds) converged);
          diameters =
            Array.of_list
              (List.filter_map (fun r -> Metrics.diameter r.Dynamics.final) converged);
          eq_verified;
          spread_ok;
          lemma3_ok;
        } ))
    sizes

let init_tree rng n = Random_graphs.tree rng n

let init_sparse rng n = Random_graphs.connected_gnm rng n (2 * n)

let e7_sum_dynamics ?(sizes = [ 16; 32; 64; 96 ]) ?(seeds = 5) () =
  let t =
    Table.create
      ~title:
        "E7 (Theorem 9): sum best-response dynamics — converged diameters vs the 2^O(sqrt(lg n)) bound"
      ~columns:
        [
          ("init", Table.Left);
          ("n", Table.Right);
          ("converged", Table.Left);
          ("rounds", Table.Left);
          ("eq verified", Table.Left);
          ("final diameter", Table.Left);
          ("2^(3 sqrt lg n)", Table.Right);
          ("recurrence bound", Table.Right);
        ]
  in
  List.iter
    (fun (name, init) ->
      List.iter
        (fun (n, s) ->
          Table.add_row t
            [
              name;
              Table.cell_int n;
              Printf.sprintf "%d/%d" s.converged s.total;
              (if Array.length s.rounds = 0 then "-" else Exp_common.minmax_cell s.rounds);
              Printf.sprintf "%d/%d" s.eq_verified s.converged;
              (if Array.length s.diameters = 0 then "-"
               else Exp_common.minmax_cell s.diameters);
              Table.cell_float ~digits:0 (Theory.theorem9_bound n);
              Table.cell_int (Theory.theorem9_recurrence_bound n);
            ])
        (collect Game.Sum sizes seeds init))
    [ ("random tree", init_tree); ("G(n, 2n)", init_sparse) ];
  Table.print t

let e8_max_dynamics ?(sizes = [ 16; 32; 64 ]) ?(seeds = 5) () =
  let t =
    Table.create
      ~title:
        "E8 (Lemmas 2-3): max best-response dynamics — equilibria obey the structural lemmas"
      ~columns:
        [
          ("init", Table.Left);
          ("n", Table.Right);
          ("converged", Table.Left);
          ("rounds", Table.Left);
          ("eq verified", Table.Left);
          ("final diameter", Table.Left);
          ("ecc spread <= 1", Table.Left);
          ("Lemma 3 holds", Table.Left);
        ]
  in
  List.iter
    (fun (name, init) ->
      List.iter
        (fun (n, s) ->
          Table.add_row t
            [
              name;
              Table.cell_int n;
              Printf.sprintf "%d/%d" s.converged s.total;
              (if Array.length s.rounds = 0 then "-" else Exp_common.minmax_cell s.rounds);
              Printf.sprintf "%d/%d" s.eq_verified s.converged;
              (if Array.length s.diameters = 0 then "-"
               else Exp_common.minmax_cell s.diameters);
              Printf.sprintf "%d/%d" s.spread_ok s.converged;
              Printf.sprintf "%d/%d" s.lemma3_ok s.converged;
            ])
        (collect Game.Max sizes seeds init))
    [ ("random tree", init_tree); ("G(n, 2n)", init_sparse) ];
  Table.print t
