type verdict =
  | Equilibrium
  | Disconnected
  | Violation of Swap.move * int
  | Alpha_violation of Alpha_game.move * float

let pp_verdict ppf = function
  | Equilibrium -> Format.pp_print_string ppf "equilibrium"
  | Disconnected -> Format.pp_print_string ppf "disconnected"
  | Violation (mv, d) -> Format.fprintf ppf "violation (%a, delta=%d)" Swap.pp_move mv d
  | Alpha_violation (mv, d) ->
    Format.fprintf ppf "violation (%a, delta=%g)" Alpha_game.pp_move mv d

exception Witness of Swap.move * int

(* Agents whose move lists were scanned, early exits taken, and — as a
   gauge — the index of the last violating agent found. The span wraps
   the whole verdict including the connectivity pre-check. Note the
   parallel scan may probe a scheduling-dependent set of agents past the
   witness, so [agents_scanned] is exact only on the sequential path. *)
let m_agents = Telemetry.counter "equilibrium.agents_scanned"

let m_early_exits = Telemetry.counter "equilibrium.early_exits"

let m_violating_agent = Telemetry.gauge "equilibrium.violating_agent"

let m_check = Telemetry.span "equilibrium.check"

(* First violating move of a single agent of a swap game, in
   move-enumeration order. Candidates are evaluated by the incremental
   engine: [Swap_eval.delta_below] returns the exact naive delta whenever
   it is below the cutoff and certifies the skip otherwise, so verdicts
   and witnesses are byte-identical to the apply/BFS/undo oracle. The max
   game also scans deletions: equilibrium demands that a deletion
   *strictly increases* the actor's local diameter, so deletions violate
   already at delta = 0. *)
let swap_scan game eng =
  let include_deletions =
    match game with Game.Max -> true | Game.Sum | Game.Alpha _ -> false
  in
  fun v ->
    try
      Swap.iter_moves ~include_deletions (Swap_eval.graph eng) v (fun mv ->
          let cutoff = match mv with Swap.Swap _ -> 0 | Swap.Delete _ -> 1 in
          match Swap_eval.delta_below eng game mv ~cutoff with
          | Some d -> raise (Witness (mv, d))
          | None -> ());
      Equilibrium
    with Witness (mv, d) -> Violation (mv, d)

(* The α state holds its own copy of the graph; its first improving move
   follows the same witness convention as the swap games. *)
let alpha_scan alpha g =
  let st = Alpha_game.create ~alpha g in
  fun v ->
    match Alpha_game.first_improving_move st v with
    | Some (mv, d) -> Alpha_violation (mv, d)
    | None -> Equilibrium

let agent_scan game g =
  match game with
  | Game.Alpha alpha -> alpha_scan alpha g
  | Game.Sum | Game.Max -> swap_scan game (Swap_eval.create g)

(* Both the sequential and the parallel checkers are built from the
   per-agent scan, so their witnesses coincide: [Pool.parallel_find]
   keeps the lowest-agent witness, and every domain scans its own
   [Graph.copy] (the engine's bound fallback applies and undoes moves on
   the graph). The sequential scan shares one engine across agents, so
   lazily computed distance rows amortise over the whole check. *)
let check ?pool game g =
  let t0 = Telemetry.start () in
  (* the swap games read connectivity off vertex 0's engine row, which
     the sequential scan starting at agent 0 wants anyway, so their
     pre-check costs no extra BFS; the α state has no such row and pays
     one BFS. Every game reports disconnection as [Disconnected] (for α
     rather than as a Buy witness with delta = -∞). *)
  let connected, scan =
    match game with
    | Game.Alpha alpha -> (Components.is_connected g, alpha_scan alpha g)
    | Game.Sum | Game.Max ->
      let eng = Swap_eval.create g in
      (Swap_eval.connected eng, swap_scan game eng)
  in
  let verdict =
    if not connected then Disconnected
    else begin
      let n = Graph.n g in
      let at scan v =
        Telemetry.incr m_agents;
        match scan v with Equilibrium -> None | w -> Some (v, w)
      in
      let witness =
        match pool with
        | Some pool when Pool.jobs pool > 1 ->
          Pool.parallel_find pool ~n
            ~init:(fun () -> agent_scan game (Graph.copy g))
            at
        | _ ->
          let rec loop v =
            if v >= n then None
            else match at scan v with Some _ as w -> w | None -> loop (v + 1)
          in
          loop 0
      in
      match witness with
      | Some (v, w) ->
        Telemetry.incr m_early_exits;
        Telemetry.set_gauge m_violating_agent v;
        w
      | None -> Equilibrium
    end
  in
  Telemetry.stop m_check t0;
  verdict

let is_equilibrium ?pool game g = check ?pool game g = Equilibrium

(* Ascending non-neighbor candidates of [v], filled into one right-sized
   array — the k-swap/insertion enumerators below call this per vertex,
   where the previous [List.init |> List.filter |> Array.of_list] chain
   churned O(n) list cells each time. *)
let non_neighbors g v =
  let n = Graph.n g in
  let buf = Array.make (max n 1) 0 in
  let k = ref 0 in
  for w = 0 to n - 1 do
    if w <> v && not (Graph.mem_edge g v w) then begin
      buf.(!k) <- w;
      incr k
    end
  done;
  Array.sub buf 0 !k

let find_non_critical_deletion g =
  (* deletion deltas come straight off the engine's cached rows: one
     distance row per endpoint (shared across its edges) plus one drop
     row per directed deletion, instead of two fresh BFS per candidate *)
  let eng = Swap_eval.create g in
  try
    List.iter
      (fun (u, v) ->
        let mu = Swap.Delete { actor = u; drop = v } in
        (match Swap_eval.delta_below eng Game.Max mu ~cutoff:1 with
        | Some du -> raise (Witness (mu, du))
        | None -> ());
        let mv = Swap.Delete { actor = v; drop = u } in
        match Swap_eval.delta_below eng Game.Max mv ~cutoff:1 with
        | Some dv -> raise (Witness (mv, dv))
        | None -> ())
      (Graph.edges g);
    None
  with Witness (mv, d) -> Some (mv, d)

let is_deletion_critical g = find_non_critical_deletion g = None

exception Pair of int * int

let find_insertion_violation g =
  let n = Graph.n g in
  let ws = Bfs.create_workspace n in
  let ecc = Array.make n 0 in
  for v = 0 to n - 1 do
    ecc.(v) <- Usage_cost.vertex_cost ws Game.Max g v
  done;
  try
    List.iter
      (fun (u, v) ->
        Graph.add_edge g u v;
        let eu = Usage_cost.vertex_cost ws Game.Max g u in
        let ev = Usage_cost.vertex_cost ws Game.Max g v in
        Graph.remove_edge g u v;
        if eu < ecc.(u) || ev < ecc.(v) then raise (Pair (u, v)))
      (Graph.complement_edges g);
    None
  with Pair (u, v) -> Some (u, v)

let is_insertion_stable g = find_insertion_violation g = None

let is_stable_under_insertions g ~k =
  if k < 0 then invalid_arg "Equilibrium.is_stable_under_insertions";
  let n = Graph.n g in
  let ws = Bfs.create_workspace n in
  let stable = ref true in
  let v = ref 0 in
  while !stable && !v < n do
    let base = Usage_cost.vertex_cost ws Game.Max g !v in
    let candidates = non_neighbors g !v in
    let chosen = Array.make (max k 1) (-1) in
    (* enumerate all subsets of size 1..k of absent incident edges at v *)
    let rec go depth lo size =
      if not !stable then ()
      else if depth = size then begin
        for i = 0 to size - 1 do
          Graph.add_edge g !v candidates.(chosen.(i))
        done;
        let after = Usage_cost.vertex_cost ws Game.Max g !v in
        for i = size - 1 downto 0 do
          Graph.remove_edge g !v candidates.(chosen.(i))
        done;
        if after < base then stable := false
      end
      else
        for i = lo to Array.length candidates - (size - depth) do
          if !stable then begin
            chosen.(depth) <- i;
            go (depth + 1) (i + 1) size
          end
        done
    in
    for size = 1 to min k (Array.length candidates) do
      go 0 0 size
    done;
    incr v
  done;
  !stable

(* enumerate all size-[size] subsets of [pool] (given as an array),
   feeding each to [f] as a list; stops early when [f] sets [stop] *)
let iter_subsets pool size stop f =
  let m = Array.length pool in
  let chosen = Array.make (max size 1) 0 in
  let rec go depth lo =
    if !stop then ()
    else if depth = size then begin
      let subset = ref [] in
      for i = size - 1 downto 0 do
        subset := pool.(chosen.(i)) :: !subset
      done;
      f !subset
    end
    else
      for i = lo to m - (size - depth) do
        if not !stop then begin
          chosen.(depth) <- i;
          go (depth + 1) (i + 1)
        end
      done
  in
  if size <= m then go 0 0

let find_k_swap_violation game g ~k =
  if k < 1 then invalid_arg "Equilibrium.find_k_swap_violation";
  let n = Graph.n g in
  let ws = Bfs.create_workspace n in
  let witness = ref None in
  let stop = ref false in
  let v = ref 0 in
  while (not !stop) && !v < n do
    let actor = !v in
    let base = Usage_cost.vertex_cost ws game g actor in
    let neighbors = Graph.neighbors g actor in
    let fresh = non_neighbors g actor in
    let jmax = min k (min (Array.length neighbors) (Array.length fresh)) in
    for j = 1 to jmax do
      iter_subsets neighbors j stop (fun drops ->
          iter_subsets fresh j stop (fun adds ->
              List.iter (fun w -> Graph.remove_edge g actor w) drops;
              List.iter (fun w -> Graph.add_edge g actor w) adds;
              let after = Usage_cost.vertex_cost ws game g actor in
              List.iter (fun w -> Graph.remove_edge g actor w) adds;
              List.iter (fun w -> Graph.add_edge g actor w) drops;
              if after < base then begin
                stop := true;
                witness := Some (actor, List.combine drops adds)
              end))
    done;
    incr v
  done;
  !witness

let is_stable_under_k_swaps game g ~k =
  find_k_swap_violation game g ~k = None

let k_change_stable_sampled rng g ~k ~trials =
  if k < 1 then invalid_arg "Equilibrium.k_change_stable_sampled";
  let n = Graph.n g in
  let ws = Bfs.create_workspace n in
  let stable = ref true in
  let v = ref 0 in
  while !stable && !v < n do
    let base = Usage_cost.vertex_cost ws Game.Max g !v in
    let nonneighbors = non_neighbors g !v in
    let neigh = Graph.neighbors g !v in
    let t = ref 0 in
    while !stable && !t < trials do
      let j = 1 + Prng.int rng k in
      let j = min j (min (Array.length neigh) (Array.length nonneighbors)) in
      if j >= 1 then begin
        let drop_idx = Prng.sample_distinct rng ~n:(Array.length neigh) ~k:j in
        let add_idx = Prng.sample_distinct rng ~n:(Array.length nonneighbors) ~k:j in
        Array.iter (fun i -> Graph.remove_edge g !v neigh.(i)) drop_idx;
        Array.iter (fun i -> Graph.add_edge g !v nonneighbors.(i)) add_idx;
        let after = Usage_cost.vertex_cost ws Game.Max g !v in
        Array.iter (fun i -> Graph.remove_edge g !v nonneighbors.(i)) add_idx;
        Array.iter (fun i -> Graph.add_edge g !v neigh.(i)) drop_idx;
        if after < base then stable := false
      end;
      incr t
    done;
    incr v
  done;
  !stable

let eccentricity_spread g =
  Metrics.eccentricities g
  |> Option.map (fun ecc ->
         let lo = Array.fold_left min ecc.(0) ecc in
         let hi = Array.fold_left max ecc.(0) ecc in
         hi - lo)

let lemma3_holds g =
  let n = Graph.n g in
  List.for_all
    (fun v ->
      let label, count = Components.components_without g v in
      (* distance-1 test is adjacency to v; a component is "far" if it has
         a vertex not adjacent to v *)
      let far = Array.make count false in
      for w = 0 to n - 1 do
        if w <> v && not (Graph.mem_edge g v w) then far.(label.(w)) <- true
      done;
      Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 far <= 1)
    (Components.cut_vertices g)
