type t = {
  g : Graph.t;
  owners : (int * int, int) Hashtbl.t;
  ws : Bfs.workspace;
}

type ownership =
  | Min_endpoint
  | Random of int
  | By_function of (int -> int -> int)

let key u v = (min u v, max u v)

let create ownership g0 =
  let g = Graph.copy g0 in
  let owners = Hashtbl.create (2 * Graph.m g) in
  let assign =
    match ownership with
    | Min_endpoint -> fun u _ -> u
    | Random seed ->
      let rng = Prng.create seed in
      fun u v -> if Prng.bool rng then u else v
    | By_function f -> f
  in
  Graph.iter_edges
    (fun u v ->
      let o = assign u v in
      if o <> u && o <> v then invalid_arg "Asym_swap.create: owner not an endpoint";
      Hashtbl.replace owners (key u v) o)
    g;
  { g; owners; ws = Bfs.create_workspace (Graph.n g) }

let graph t = t.g

let owner t u v =
  match Hashtbl.find_opt t.owners (key u v) with
  | Some o -> o
  | None -> invalid_arg "Asym_swap.owner: absent edge"

let owned_edges t v =
  Graph.fold_neighbors
    (fun acc w -> if owner t v w = v then w :: acc else acc)
    [] t.g v
  |> List.sort compare

let apply t mv =
  match mv with
  | Swap.Swap { actor; drop; add } ->
    Swap.apply t.g mv;
    Hashtbl.remove t.owners (key actor drop);
    Hashtbl.replace t.owners (key actor add) actor
  | Swap.Delete _ -> invalid_arg "Asym_swap: deletions are not in the move set"

let best_move t v =
  let best = ref None in
  let n = Graph.n t.g in
  let mine = owned_edges t v in
  List.iter
    (fun drop ->
      for add = 0 to n - 1 do
        if add <> v && add <> drop && not (Graph.mem_edge t.g v add) then begin
          let mv = Swap.Swap { actor = v; drop; add } in
          let d = Swap.delta t.ws Game.Sum t.g mv in
          if d < 0 then
            match !best with
            | Some (_, bd) when bd <= d -> ()
            | _ -> best := Some (mv, d)
        end
      done)
    mine;
  !best

let is_equilibrium t =
  let rec loop v = v >= Graph.n t.g || (best_move t v = None && loop (v + 1)) in
  loop 0

let symmetric_equilibrium_implies_asymmetric g ownership =
  (not (Equilibrium.is_equilibrium Game.Sum g)) || is_equilibrium (create ownership g)

type result = {
  state : t;
  converged : bool;
  rounds : int;
  moves : int;
}

let copy t =
  { g = Graph.copy t.g; owners = Hashtbl.copy t.owners; ws = Bfs.create_workspace (Graph.n t.g) }

let run_dynamics ?(max_rounds = 10_000) t0 =
  let t = copy t0 in
  let n = Graph.n t.g in
  let rounds = ref 0 in
  let moves = ref 0 in
  let converged = ref false in
  while (not !converged) && !rounds < max_rounds do
    incr rounds;
    let progressed = ref false in
    for v = 0 to n - 1 do
      match best_move t v with
      | None -> ()
      | Some (mv, _) ->
        apply t mv;
        incr moves;
        progressed := true
    done;
    if not !progressed then converged := true
  done;
  { state = t; converged = !converged; rounds = !rounds; moves = !moves }
