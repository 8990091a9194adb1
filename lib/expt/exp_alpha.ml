let e11_alpha_transfer ?(n = 14) ?alphas () =
  let alphas =
    match alphas with
    | Some a -> a
    | None ->
      let nf = float_of_int n in
      [ 0.2; 0.5; 1.0; 2.0; 4.0; nf /. 2.0; nf; 2.0 *. nf; nf *. nf ]
  in
  let t =
    Table.create
      ~title:
        "E11 (Section 1 transfer): alpha-game equilibria across alpha — diameter stays flat"
      ~columns:
        [
          ("alpha", Table.Right);
          ("outcome", Table.Left);
          ("m final", Table.Right);
          ("diameter", Table.Right);
          ("alpha-local eq", Table.Left);
          ("basic swap eq (sum)", Table.Left);
          ("social / optimum", Table.Right);
        ]
  in
  List.iter
    (fun alpha ->
      let rng = Prng.create 17 in
      let g0 = Random_graphs.tree rng n in
      let game = Alpha_game.create ~alpha g0 in
      let r = Alpha_game.run_dynamics game in
      let st = r.Alpha_game.state in
      let g = Alpha_game.graph st in
      let outcome =
        match r.Alpha_game.outcome with
        | Alpha_game.Converged -> "converged"
        | Alpha_game.Cycled -> "cycled"
        | Alpha_game.Round_limit -> "round-limit"
      in
      Table.add_row t
        [
          Table.cell_float ~digits:2 alpha;
          outcome;
          Table.cell_int (Graph.m g);
          Exp_common.diameter_cell g;
          Table.cell_bool (Alpha_game.is_local_equilibrium st);
          Table.cell_bool (Equilibrium.is_equilibrium Game.Sum g);
          Table.cell_float ~digits:3 (Poa.alpha_poa st);
        ])
    alphas;
  Table.print t;
  print_endline
    "  Note: alpha-game agents may only swap edges they own, so an alpha equilibrium\n\
    \  need not be a full (both-endpoints) swap equilibrium; the diameters nevertheless\n\
    \  obey the swap-equilibrium bounds for every alpha, which is the paper's point.\n"

(* Single enumeration pass per n: track, for each edge count m, the optimum
   social cost over all connected graphs and the worst cost / diameter over
   sum equilibria. *)
let e12_price_of_anarchy ?(max_n = 6) () =
  let t =
    Table.create
      ~title:"E12: exact price of anarchy of the basic sum game (exhaustive, small n)"
      ~columns:
        [
          ("n", Table.Right);
          ("m", Table.Right);
          ("optimum social cost", Table.Right);
          ("worst equilibrium cost", Table.Right);
          ("PoA", Table.Right);
          ("max eq diameter", Table.Right);
        ]
  in
  for n = 4 to max_n do
    let max_m = n * (n - 1) / 2 in
    let opt = Array.make (max_m + 1) max_int in
    let worst_eq = Array.make (max_m + 1) (-1) in
    let worst_diam = Array.make (max_m + 1) 0 in
    Enumerate.connected_graphs n (fun g ->
        let m = Graph.m g in
        let c = Usage_cost.social_cost Game.Sum g in
        if c < opt.(m) then opt.(m) <- c;
        if Equilibrium.is_equilibrium Game.Sum g then begin
          if c > worst_eq.(m) then worst_eq.(m) <- c;
          match Metrics.diameter g with
          | Some d -> if d > worst_diam.(m) then worst_diam.(m) <- d
          | None -> ()
        end);
    for m = n - 1 to max_m do
      if worst_eq.(m) >= 0 then
        Table.add_row t
          [
            Table.cell_int n;
            Table.cell_int m;
            Table.cell_int opt.(m);
            Table.cell_int worst_eq.(m);
            Table.cell_float ~digits:3 (float_of_int worst_eq.(m) /. float_of_int opt.(m));
            Table.cell_int worst_diam.(m);
          ]
    done
  done;
  Table.print t
