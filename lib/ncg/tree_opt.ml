type precomp = {
  n : int;
  g : Graph.t;
  dist : int array array;
  sum : int array;
  (* per directed tree edge (v, w): size of w's side, and
     S_v_own = sum of distances from v to its own side *)
  side : (int * int, int * int) Hashtbl.t;
}

let require_tree g =
  if not (Components.is_tree g) then invalid_arg "Tree_opt: not a tree"

let precompute g =
  require_tree g;
  let n = Graph.n g in
  let dist = Bfs.all_pairs g in
  let sum = Array.map (fun row -> Array.fold_left ( + ) 0 row) dist in
  let side = Hashtbl.create (4 * n) in
  Graph.iter_edges
    (fun a b ->
      let record v w =
        (* w's side of edge vw: vertices strictly closer to w *)
        let size = ref 0 and s_w_down = ref 0 in
        for x = 0 to n - 1 do
          if dist.(x).(w) < dist.(x).(v) then begin
            incr size;
            s_w_down := !s_w_down + dist.(w).(x)
          end
        done;
        let s_v_own = sum.(v) - !size - !s_w_down in
        Hashtbl.replace side (v, w) (!size, s_v_own)
      in
      record a b;
      record b a)
    g;
  { n; g; dist; sum; side }

let sum_cost p v = p.sum.(v)

let swap_delta p ~actor ~drop ~add =
  let size_drop, s_own =
    match Hashtbl.find_opt p.side (actor, drop) with
    | Some x -> x
    | None -> invalid_arg "Tree_opt.swap_delta: actor-drop is not an edge"
  in
  if add = actor || add = drop || Graph.mem_edge p.g actor add then
    invalid_arg "Tree_opt.swap_delta: bad attachment target";
  (* [add] is on the drop side iff it is strictly closer to drop *)
  if p.dist.(add).(drop) >= p.dist.(add).(actor) then Usage_cost.infinite
  else begin
    let size_own = p.n - size_drop in
    (* distances from [add] to the actor's own side all cross the dropped
       edge: d(add, x) = d(add, drop) + 1 + d(actor, x) *)
    let s_add_dropside =
      p.sum.(add) - ((size_own * (p.dist.(add).(drop) + 1)) + s_own)
    in
    let new_sum = s_own + size_drop + s_add_dropside in
    new_sum - p.sum.(actor)
  end

let best_swap p v =
  let best = ref None in
  let neighbors = Graph.neighbors p.g v in
  Array.iter
    (fun drop ->
      for add = 0 to p.n - 1 do
        if
          add <> v && add <> drop
          && not (Array.exists (fun w -> w = add) neighbors)
        then begin
          let d = swap_delta p ~actor:v ~drop ~add in
          if d < 0 then
            match !best with
            | Some (_, bd) when bd <= d -> ()
            | _ -> best := Some (Swap.Swap { actor = v; drop; add }, d)
        end
      done)
    neighbors;
  !best

(* --- max version -------------------------------------------------------- *)

type max_precomp = {
  mn : int;
  mg : Graph.t;
  mdist : int array array;
  mecc : int array;
  (* per directed edge (v, w): eccentricity of v within its own side, and
     a diametral pair (a, b) of the drop side C_w *)
  mside : (int * int, int * int * int) Hashtbl.t;
}

let precompute_max g =
  require_tree g;
  let n = Graph.n g in
  let mdist = Bfs.all_pairs g in
  let mecc = Array.map (fun row -> Array.fold_left max 0 row) mdist in
  let mside = Hashtbl.create (4 * n) in
  Graph.iter_edges
    (fun x y ->
      let record v w =
        (* C_w = vertices strictly closer to w; the restricted diametral
           pair is found by two sweeps inside C_w using the global tree
           distances (paths between C_w vertices stay inside C_w) *)
        let in_cw z = mdist.(z).(w) < mdist.(z).(v) in
        let own_ecc = ref 0 in
        let a = ref w in
        for z = 0 to n - 1 do
          if in_cw z then begin
            if mdist.(w).(z) > mdist.(w).(!a) then a := z
          end
          else if mdist.(v).(z) > !own_ecc then own_ecc := mdist.(v).(z)
        done;
        let b = ref !a in
        for z = 0 to n - 1 do
          if in_cw z && mdist.(!a).(z) > mdist.(!a).(!b) then b := z
        done;
        Hashtbl.replace mside (v, w) (!own_ecc, !a, !b)
      in
      record x y;
      record y x)
    g;
  { mn = n; mg = g; mdist; mecc; mside }

let max_swap_delta p ~actor ~drop ~add =
  let own_ecc, a, b =
    match Hashtbl.find_opt p.mside (actor, drop) with
    | Some x -> x
    | None -> invalid_arg "Tree_opt.max_swap_delta: actor-drop is not an edge"
  in
  if add = actor || add = drop || Graph.mem_edge p.mg actor add then
    invalid_arg "Tree_opt.max_swap_delta: bad attachment target";
  if p.mdist.(add).(drop) >= p.mdist.(add).(actor) then Usage_cost.infinite
  else begin
    let restricted_ecc = max p.mdist.(add).(a) p.mdist.(add).(b) in
    let new_ecc = max own_ecc (1 + restricted_ecc) in
    new_ecc - p.mecc.(actor)
  end

let best_max_swap p v =
  let best = ref None in
  let neighbors = Graph.neighbors p.mg v in
  Array.iter
    (fun drop ->
      for add = 0 to p.mn - 1 do
        if
          add <> v && add <> drop
          && not (Array.exists (fun w -> w = add) neighbors)
        then begin
          let d = max_swap_delta p ~actor:v ~drop ~add in
          if d < 0 then
            match !best with
            | Some (_, bd) when bd <= d -> ()
            | _ -> best := Some (Swap.Swap { actor = v; drop; add }, d)
        end
      done)
    neighbors;
  !best

(* --- both games --------------------------------------------------------- *)

(* The game's best-swap oracle over one fixed tree: the O(n²) tables are
   built once and answer every agent until a move is applied. *)
let best_of game g =
  match game with
  | Game.Sum -> best_swap (precompute g)
  | Game.Max -> best_max_swap (precompute_max g)
  | Game.Alpha _ -> invalid_arg "Tree_opt: no tree evaluator for the alpha game"

let is_equilibrium game g =
  let best = best_of game g in
  let rec scan v = v >= Graph.n g || (best v = None && scan (v + 1)) in
  scan 0

let converge ?(max_rounds = 10_000) game g0 =
  require_tree g0;
  let g = Graph.copy g0 in
  let moves = ref 0 in
  let improved = ref true in
  let best = ref (best_of game g) in
  while !improved && !moves < max_rounds do
    improved := false;
    let v = ref 0 in
    let n = Graph.n g in
    while !v < n && !moves < max_rounds do
      (match !best !v with
      | Some (mv, _) ->
        Swap.apply g mv;
        best := best_of game g;
        incr moves;
        improved := true
      | None -> ());
      incr v
    done
  done;
  g, !moves
