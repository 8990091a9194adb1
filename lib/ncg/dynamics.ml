let log_src = Logs.Src.create "bncg.dynamics" ~doc:"best-response swap dynamics"

module Log = (val Logs.src_log log_src)

let m_runs = Telemetry.counter "dynamics.runs"

let m_rounds = Telemetry.counter "dynamics.rounds"

let m_moves = Telemetry.counter "dynamics.moves"

type rule = Best_response | First_improving | Random_improving | Sampled of int

type schedule = Round_robin | Random_agent

type outcome = Converged | Cycled | Round_limit

type config = {
  game : Game.t;
  rule : rule;
  schedule : schedule;
  max_rounds : int;
  allow_deletions : bool;
  record_trace : bool;
}

let default_config game =
  {
    game;
    rule = Best_response;
    schedule = Round_robin;
    max_rounds = 10_000;
    allow_deletions = Game.equal game Game.Max;
    record_trace = false;
  }

type step = {
  index : int;
  move : Swap.move;
  delta : int;
  social : int;
  diameter : int;
}

type result = {
  final : Graph.t;
  outcome : outcome;
  rounds : int;
  moves : int;
  trace : step list;
}

(* A cost-neutral deletion for the max game: remove an incident edge
   without hurting the agent's local diameter.  Strictly decreases m, so it
   can never cycle; it is required to reach deletion-critical states.
   Deletion deltas come straight off the engine's cached drop rows. *)
let find_neutral_deletion eng game v =
  match game with
  | Game.Sum | Game.Alpha _ -> None
  | Game.Max ->
    let g = Swap_eval.graph eng in
    let best = ref None in
    (* snapshot: the engine's fallback mutates the adjacency rows *)
    Array.iter
      (fun drop ->
        if !best = None then begin
          let mv = Swap.Delete { actor = v; drop } in
          match Swap_eval.delta_below eng game mv ~cutoff:1 with
          | Some d -> best := Some (mv, d)
          | None -> ()
        end)
      (Graph.neighbors g v);
    !best

(* The candidate stream of a bounded agent, shared with the large-n scale
   engine (Scale_dynamics): both implementations draw (drop-index, add)
   pairs through this one function, so their PRNG consumption is equal by
   construction and the sampled engine reproduces these move sequences
   byte-identically. Pairs are drawn up front — candidate evaluation
   consumes no randomness — which is stream-equivalent to drawing them
   interleaved with evaluation. *)
let draw_sampled_candidates rng ~deg ~n ~budget =
  let pairs = Array.make budget (0, 0) in
  for i = 0 to budget - 1 do
    let drop_index = Prng.int rng deg in
    let add = Prng.int rng n in
    pairs.(i) <- (drop_index, add)
  done;
  pairs

(* bounded agent: examine only [budget] uniformly sampled candidate swaps *)
let sampled_move rng eng game v budget =
  let g = Swap_eval.graph eng in
  let n = Graph.n g in
  let neighbors = Graph.neighbors g v in
  let deg = Array.length neighbors in
  if deg = 0 || deg >= n - 1 then None
  else begin
    let best = ref None in
    let pairs = draw_sampled_candidates rng ~deg ~n ~budget in
    Array.iter
      (fun (drop_index, add) ->
        let drop = neighbors.(drop_index) in
        if add <> v && add <> drop && not (Array.exists (fun w -> w = add) neighbors)
        then begin
          let mv = Swap.Swap { actor = v; drop; add } in
          let cutoff = match !best with None -> 0 | Some (_, bd) -> bd in
          match Swap_eval.delta_below eng game mv ~cutoff with
          | Some d -> best := Some (mv, d)
          | None -> ()
        end)
      pairs;
    !best
  end

let pick_move rng eng cfg v =
  let game = cfg.game in
  let deletion =
    if cfg.allow_deletions then find_neutral_deletion eng game v else None
  in
  match deletion with
  | Some _ as d -> d
  | None -> (
    match cfg.rule with
    | Best_response -> Swap_eval.best_move eng game v
    | First_improving -> Swap_eval.first_improving_move eng game v
    | Random_improving -> Swap_eval.random_improving_move rng eng game v
    | Sampled budget -> sampled_move rng eng game v budget)

let finish cfg outcome ~rounds ~moves =
  Log.info (fun m ->
      m "%s dynamics: %s after %d rounds, %d moves"
        (Game.to_string cfg.game)
        (match outcome with
        | Converged -> "converged"
        | Cycled -> "cycled"
        | Round_limit -> "round limit")
        rounds moves);
  Telemetry.incr m_runs;
  Telemetry.add m_rounds rounds;
  Telemetry.add m_moves moves

(* The α-game has its own best-response engine (ownership-aware moves,
   float costs); [run] delegates and maps the result into this module's
   record. Rule/schedule refinements and traces are swap-engine features,
   so the α path is plain round-robin best-response without a trace. *)
let run_alpha alpha cfg g0 =
  let r = Alpha_game.run_dynamics ~max_rounds:cfg.max_rounds (Alpha_game.create ~alpha g0) in
  let outcome =
    match r.Alpha_game.outcome with
    | Alpha_game.Converged -> Converged
    | Alpha_game.Cycled -> Cycled
    | Alpha_game.Round_limit -> Round_limit
  in
  finish cfg outcome ~rounds:r.Alpha_game.rounds ~moves:r.Alpha_game.moves;
  {
    final = Graph.copy (Alpha_game.graph r.Alpha_game.state);
    outcome;
    rounds = r.Alpha_game.rounds;
    moves = r.Alpha_game.moves;
    trace = [];
  }

let run_swap ?rng cfg g0 =
  let rng = match rng with Some r -> r | None -> Prng.create 0 in
  let g = Graph.copy g0 in
  let n = Graph.n g in
  let eng = Swap_eval.create g in
  let seen = Hashtbl.create 1024 in
  Hashtbl.add seen (Graph.hash g) ();
  let trace = ref [] in
  let moves = ref 0 in
  let rounds = ref 0 in
  let outcome = ref Round_limit in
  let record mv d =
    Log.debug (fun m -> m "move %d: %s (delta %d)" !moves (Swap.move_to_string mv) d);
    if cfg.record_trace then begin
      let social = Usage_cost.social_cost cfg.game g in
      let diameter = Option.value (Metrics.diameter g) ~default:(-1) in
      trace := { index = !moves; move = mv; delta = d; social; diameter } :: !trace
    end;
    incr moves
  in
  (* deletions shrink the edge set, so only a swap can revisit a state *)
  let take mv d =
    Swap.apply g mv;
    Swap_eval.invalidate eng;
    record mv d;
    let h = Graph.hash g in
    if Hashtbl.mem seen h then begin
      match mv with
      | Swap.Swap _ ->
        outcome := Cycled;
        raise Exit
      | Swap.Delete _ -> Hashtbl.replace seen h ()
    end
    else Hashtbl.add seen h ()
  in
  (try
     while !rounds < cfg.max_rounds do
       incr rounds;
       let progressed = ref false in
       for slot = 0 to n - 1 do
         let v =
           match cfg.schedule with
           | Round_robin -> slot
           | Random_agent -> Prng.int rng n
         in
         match pick_move rng eng cfg v with
         | None -> ()
         | Some (mv, d) ->
           progressed := true;
           take mv d
       done;
       if not !progressed then begin
         (* A quiet pass under Random_agent scheduling may just have missed
            the busy agents; confirm with a full deterministic scan. *)
         let pending = ref None in
         let v = ref 0 in
         while !pending = None && !v < n do
           pending := pick_move rng eng { cfg with rule = First_improving } !v;
           incr v
         done;
         match !pending with
         | None ->
           outcome := Converged;
           raise Exit
         | Some (mv, d) -> (
           match cfg.rule with
           | Sampled _ ->
             (* a bounded agent missed its move this pass; keep sampling
                under the budget rather than applying the oracle's move *)
             ()
           | Best_response | First_improving | Random_improving -> take mv d)
       end
     done
   with Exit -> ());
  finish cfg !outcome ~rounds:!rounds ~moves:!moves;
  { final = g; outcome = !outcome; rounds = !rounds; moves = !moves; trace = List.rev !trace }

let run ?rng cfg g0 =
  if not (Components.is_connected g0) then
    invalid_arg "Dynamics.run: input must be connected";
  match cfg.game with
  | Game.Alpha alpha -> run_alpha alpha cfg g0
  | Game.Sum | Game.Max -> run_swap ?rng cfg g0
