type t = {
  alpha : float;
  g : Graph.t;
  owners : (int * int, int) Hashtbl.t;  (* key (min, max) -> owner endpoint *)
  ws : Bfs.workspace;
}

type move =
  | Buy of { actor : int; target : int }
  | Sell of { actor : int; target : int }
  | Swap_owned of { actor : int; drop : int; add : int }

let pp_move ppf = function
  | Buy { actor; target } -> Format.fprintf ppf "%d: buy %d-%d" actor actor target
  | Sell { actor; target } -> Format.fprintf ppf "%d: sell %d-%d" actor actor target
  | Swap_owned { actor; drop; add } ->
    Format.fprintf ppf "%d: swap %d-%d -> %d-%d" actor actor drop actor add

let move_to_string mv = Format.asprintf "%a" pp_move mv

let key u v = (min u v, max u v)

let create ~alpha ?owner g0 =
  if alpha < 0.0 then invalid_arg "Alpha_game.create: negative alpha";
  let g = Graph.copy g0 in
  let owners = Hashtbl.create (2 * Graph.m g) in
  let assign = match owner with Some f -> f | None -> fun u _ -> u in
  (* validate the whole assignment up front: a bad owner must fail here,
     in [create], not later when the edge is first touched by a move *)
  Graph.iter_edges
    (fun u v ->
      let o = assign u v in
      if o <> u && o <> v then
        invalid_arg
          (Printf.sprintf
             "Alpha_game.create: owner %d of edge %d-%d is not an endpoint" o u v);
      Hashtbl.replace owners (key u v) o)
    g;
  { alpha; g; owners; ws = Bfs.create_workspace (Graph.n g) }

let alpha t = t.alpha

let graph t = t.g

let n t = Graph.n t.g

let owner t u v =
  match Hashtbl.find_opt t.owners (key u v) with
  | Some o -> o
  | None -> invalid_arg "Alpha_game.owner: absent edge"

let owned_degree t v =
  Graph.fold_neighbors
    (fun acc w -> if owner t v w = v then acc + 1 else acc)
    0 t.g v

let agent_cost t v =
  let c = Usage_cost.vertex_cost t.ws Game.Sum t.g v in
  if Usage_cost.is_infinite c then infinity
  else (t.alpha *. float_of_int (owned_degree t v)) +. float_of_int c

let social_cost t =
  let dist = Usage_cost.social_cost Game.Sum t.g in
  if Usage_cost.is_infinite dist then infinity
  else (t.alpha *. float_of_int (Graph.m t.g)) +. float_of_int dist

let is_applicable t = function
  | Buy { actor; target } ->
    actor <> target && not (Graph.mem_edge t.g actor target)
  | Sell { actor; target } ->
    Graph.mem_edge t.g actor target && owner t actor target = actor
  | Swap_owned { actor; drop; add } ->
    actor <> add && drop <> add
    && Graph.mem_edge t.g actor drop
    && owner t actor drop = actor
    && not (Graph.mem_edge t.g actor add)

let apply t mv =
  if not (is_applicable t mv) then invalid_arg "Alpha_game.apply: not applicable";
  match mv with
  | Buy { actor; target } ->
    Graph.add_edge t.g actor target;
    Hashtbl.replace t.owners (key actor target) actor
  | Sell { actor; target } ->
    Graph.remove_edge t.g actor target;
    Hashtbl.remove t.owners (key actor target)
  | Swap_owned { actor; drop; add } ->
    Graph.remove_edge t.g actor drop;
    Hashtbl.remove t.owners (key actor drop);
    Graph.add_edge t.g actor add;
    Hashtbl.replace t.owners (key actor add) actor

let undo t = function
  | Buy { actor; target } ->
    Graph.remove_edge t.g actor target;
    Hashtbl.remove t.owners (key actor target)
  | Sell { actor; target } ->
    Graph.add_edge t.g actor target;
    Hashtbl.replace t.owners (key actor target) actor
  | Swap_owned { actor; drop; add } ->
    Graph.remove_edge t.g actor add;
    Hashtbl.remove t.owners (key actor add);
    Graph.add_edge t.g actor drop;
    Hashtbl.replace t.owners (key actor drop) actor

let delta t mv =
  let a = match mv with Buy { actor; _ } | Sell { actor; _ } | Swap_owned { actor; _ } -> actor in
  let before = agent_cost t a in
  apply t mv;
  let after = agent_cost t a in
  undo t mv;
  (* infinity - infinity would be NaN; a move from a disconnected state to
     a disconnected state is simply non-improving *)
  if after = infinity then infinity else after -. before

let iter_moves t v f =
  let nv = Graph.n t.g in
  (* snapshot the neighborhood: the callback applies/undoes moves, which
     mutates the live adjacency rows *)
  let neighbors = Graph.neighbors t.g v in
  let is_neighbor w = Array.exists (fun x -> x = w) neighbors in
  for w = 0 to nv - 1 do
    if w <> v && not (is_neighbor w) then f (Buy { actor = v; target = w })
  done;
  Array.iter
    (fun w ->
      if owner t v w = v then begin
        f (Sell { actor = v; target = w });
        for add = 0 to nv - 1 do
          if add <> v && add <> w && not (is_neighbor add) then
            f (Swap_owned { actor = v; drop = w; add })
        done
      end)
    neighbors

let best_move t v =
  let best = ref None in
  iter_moves t v (fun mv ->
      let d = delta t mv in
      if d < -1e-9 then
        match !best with
        | Some (_, bd) when bd <= d -> ()
        | _ -> best := Some (mv, d));
  !best

let is_local_equilibrium t =
  let rec loop v = v >= Graph.n t.g || (best_move t v = None && loop (v + 1)) in
  loop 0

exception Improving of move * float

(* First improving move of one agent, in [iter_moves] enumeration order
   (buys ascending, then per neighbor sell + owned-swaps ascending) — the
   deterministic witness [Equilibrium.check] reports, mirroring the
   lowest-agent / first-move convention of the basic games. *)
let first_improving_move t v =
  try
    iter_moves t v (fun mv ->
        let d = delta t mv in
        if d < -1e-9 then raise (Improving (mv, d)));
    None
  with Improving (mv, d) -> Some (mv, d)

let find_violation t =
  let nv = Graph.n t.g in
  let rec scan v =
    if v >= nv then None
    else
      match first_improving_move t v with Some _ as w -> w | None -> scan (v + 1)
  in
  scan 0

let best_response_exists t = find_violation t <> None

let actor = function
  | Buy { actor; _ } | Sell { actor; _ } | Swap_owned { actor; _ } -> actor

type outcome = Converged | Cycled | Round_limit

type result = { state : t; outcome : outcome; rounds : int; moves : int }

let copy t =
  {
    alpha = t.alpha;
    g = Graph.copy t.g;
    owners = Hashtbl.copy t.owners;
    ws = Bfs.create_workspace (Graph.n t.g);
  }

let state_hash t =
  let acc = ref (Prng.hash64 (Int64.of_int (Graph.n t.g))) in
  Graph.iter_edges
    (fun u v ->
      let o = owner t u v in
      let code = Int64.of_int ((((u * Graph.n t.g) + v) * 2) + if o = u then 0 else 1) in
      acc := Int64.add !acc (Prng.hash64 code))
    t.g;
  Prng.hash64 !acc

let run_dynamics ?(max_rounds = 10_000) t0 =
  let t = copy t0 in
  let nv = Graph.n t.g in
  let seen = Hashtbl.create 1024 in
  Hashtbl.add seen (state_hash t) ();
  let moves = ref 0 in
  let rounds = ref 0 in
  let outcome = ref Round_limit in
  (try
     while !rounds < max_rounds do
       incr rounds;
       let progressed = ref false in
       for v = 0 to nv - 1 do
         match best_move t v with
         | None -> ()
         | Some (mv, _) ->
           apply t mv;
           incr moves;
           progressed := true;
           let h = state_hash t in
           if Hashtbl.mem seen h then begin
             outcome := Cycled;
             raise Exit
           end;
           Hashtbl.add seen h ()
       done;
       if not !progressed then begin
         outcome := Converged;
         raise Exit
       end
     done
   with Exit -> ());
  { state = t; outcome = !outcome; rounds = !rounds; moves = !moves }

let optimal_social_cost ~alpha nv =
  if nv < 1 then invalid_arg "Alpha_game.optimal_social_cost";
  let nf = float_of_int nv in
  let star =
    (alpha *. (nf -. 1.0)) +. (2.0 *. (nf -. 1.0)) +. (2.0 *. (nf -. 1.0) *. (nf -. 2.0))
  in
  let complete = (alpha *. nf *. (nf -. 1.0) /. 2.0) +. (nf *. (nf -. 1.0)) in
  Float.min star complete
