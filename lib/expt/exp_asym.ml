let e20_asymmetric_swap ?(n = 24) ?(seeds = 8) () =
  let t =
    Table.create
      ~title:
        (Printf.sprintf
           "E20: asymmetric (owner-only) swap game — equilibria are wider and deeper than symmetric ones (n = %d)"
           n)
      ~columns:
        [
          ("seed", Table.Right);
          ("ownership", Table.Left);
          ("converged", Table.Left);
          ("moves", Table.Right);
          ("final diameter", Table.Right);
          ("asym equilibrium", Table.Left);
          ("also symmetric eq", Table.Left);
        ]
  in
  let sym_diams = ref [] in
  let asym_diams = ref [] in
  Array.iter
    (fun seed ->
      let rng = Prng.create seed in
      let g0 = Random_graphs.tree rng n in
      (* symmetric baseline on the same start *)
      let sym = Dynamics.run ~rng (Dynamics.default_config Game.Sum) g0 in
      (match Metrics.diameter sym.Dynamics.final with
      | Some d -> sym_diams := d :: !sym_diams
      | None -> ());
      List.iter
        (fun (name, ownership) ->
          let game = Asym_swap.create ownership g0 in
          let r = Asym_swap.run_dynamics game in
          let g = Asym_swap.graph r.Asym_swap.state in
          (match Metrics.diameter g with
          | Some d -> asym_diams := d :: !asym_diams
          | None -> ());
          Table.add_row t
            [
              Table.cell_int seed;
              name;
              Table.cell_bool r.Asym_swap.converged;
              Table.cell_int r.Asym_swap.moves;
              Exp_common.diameter_cell g;
              Table.cell_bool (Asym_swap.is_equilibrium r.Asym_swap.state);
              Table.cell_bool (Equilibrium.is_equilibrium Game.Sum g);
            ])
        [ ("random", Asym_swap.Random seed); ("min-endpoint", Asym_swap.Min_endpoint) ])
    (Exp_common.seeds seeds);
  Table.print t;
  let pp_diams label diams =
    let a = Array.of_list (List.map float_of_int diams) in
    Printf.printf "  %s final diameters: mean %.2f, max %.0f\n" label (Stats.mean a)
      (Array.fold_left Float.max a.(0) a)
  in
  pp_diams "symmetric" !sym_diams;
  pp_diams "asymmetric" !asym_diams;
  print_endline
    "  Restricting swaps to owners removes most deviations, so dynamics stall in\n\
    \  shallower local optima that the symmetric game would escape: the asymmetric\n\
    \  equilibria are generally NOT full swap equilibria and carry larger diameters —\n\
    \  quantifying how much of the paper's small-diameter conclusion rests on\n\
    \  either-endpoint swaps.\n"
