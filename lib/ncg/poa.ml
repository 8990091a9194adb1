let diameter_ratio g =
  match Metrics.diameter g with
  | None -> None
  | Some d ->
    let n = Graph.n g in
    let opt = if Graph.m g >= n * (n - 1) / 2 then 1 else 2 in
    if n <= 1 then Some 1.0
    else Some (float_of_int d /. float_of_int opt)

let sum_cost_ratio g =
  let cost = Usage_cost.social_cost Game.Sum g in
  if Usage_cost.is_infinite cost then None
  else begin
    let lb = Usage_cost.social_cost_lower_bound Game.Sum ~n:(Graph.n g) ~m:(Graph.m g) in
    if lb <= 0 then Some 1.0 else Some (float_of_int cost /. float_of_int lb)
  end

let exact_optimum_sum n m =
  if m < n - 1 then None
  else begin
    let best = ref None in
    Enumerate.connected_graphs n (fun g ->
        if Graph.m g = m then begin
          let c = Usage_cost.social_cost Game.Sum g in
          match !best with
          | Some b when b <= c -> ()
          | _ -> best := Some c
        end);
    !best
  end

let exact_sum_poa n m =
  match exact_optimum_sum n m with
  | None -> None
  | Some opt ->
    let worst = ref None in
    Enumerate.connected_graphs n (fun g ->
        if Graph.m g = m && Equilibrium.is_equilibrium Game.Sum g then begin
          let c = Usage_cost.social_cost Game.Sum g in
          match !worst with
          | Some w when w >= c -> ()
          | _ -> worst := Some c
        end);
    Option.map (fun w -> float_of_int w /. float_of_int opt) !worst

let alpha_poa t =
  Alpha_game.social_cost t /. Alpha_game.optimal_social_cost ~alpha:(Alpha_game.alpha t) (Alpha_game.n t)
