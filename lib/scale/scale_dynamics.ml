let log_src = Logs.Src.create "bncg.scale" ~doc:"large-n sampled swap dynamics"

module Log = (val Logs.src_log log_src)

let m_runs = Telemetry.counter "scale.dynamics.runs"

let m_rounds = Telemetry.counter "scale.dynamics.rounds"

let m_probes = Telemetry.counter "scale.dynamics.probes"

let m_moves = Telemetry.counter "scale.dynamics.moves"

let m_deletions = Telemetry.counter "scale.dynamics.deletions"

let m_certified = Telemetry.counter "scale.dynamics.certified_skips"

let m_exact = Telemetry.counter "scale.dynamics.exact_evals"

let m_bfs = Telemetry.counter "scale.dynamics.bfs_runs"

type confirm = Exact_scan | Quiescence of int

type config = {
  game : Game.t;
  budget : int;
  probes_per_round : int;
  max_rounds : int;
  allow_deletions : bool;
  confirm : confirm;
  window : int;
  trajectory_every : int;
  trajectory_sources : int;
  traj_seed : int;
  record_trace : bool;
}

let default_config game =
  {
    game;
    budget = 16;
    probes_per_round = 0;
    max_rounds = 10_000;
    allow_deletions = Game.equal game Game.Max;
    confirm = Exact_scan;
    window = 1 lsl 20;
    trajectory_every = 0;
    trajectory_sources = 32;
    traj_seed = 0;
    record_trace = false;
  }

type sample = {
  s_round : int;
  s_moves : int;
  s_diameter_lb : int;
  s_mean_dist : float;
}

type result = {
  outcome : Dynamics.outcome;
  sampled_verdict : bool;
  rounds : int;
  probes : int;
  moves : int;
  deletions : int;
  final : Flexcsr.t;
  final_m : int;
  trajectory : sample list;
  trace : (Swap.move * int) list;
}

let run ?pool ?rng cfg csr =
  (* the certified-bound machinery and the CSR kernels speak the basic
     two-game cost model; the α-game (ownership state, float costs) has
     no sampled engine yet and is rejected up front with a clear error *)
  let max_game =
    match cfg.game with
    | Game.Sum -> false
    | Game.Max -> true
    | Game.Alpha _ ->
      invalid_arg
        (Printf.sprintf
           "Scale_dynamics.run: the scale engine supports only the basic \
            games (sum, max); got %s"
           (Game.to_string cfg.game))
  in
  if cfg.budget < 1 then invalid_arg "Scale_dynamics.run: budget < 1";
  if cfg.window < 1 then invalid_arg "Scale_dynamics.run: window < 1";
  let rng = match rng with Some r -> r | None -> Prng.create 0 in
  let fx = Flexcsr.of_csr csr in
  let n = Flexcsr.n fx in
  if n < 1 then invalid_arg "Scale_dynamics.run: empty graph";
  let dist_v = Array.make n (-1) in
  let dist_x = Array.make n (-1) in
  let queue = Array.make n 0 in
  let reached0, _, _ = Flexcsr.bfs_stats fx 0 ~dist:dist_v ~queue in
  if reached0 < n then invalid_arg "Scale_dynamics.run: input must be connected";
  let bsc = Bitbfs.create_scratch n in
  (* drop rows of the bound batch, allocated lazily and reused per probe *)
  let rows = Array.make (max cfg.budget 1) [||] in
  let row_base = Array.make (max cfg.budget 1) 0 in
  let get_row slot =
    if Array.length rows.(slot) < n then rows.(slot) <- Array.make n (-1);
    rows.(slot)
  in
  let inf = Usage_cost.infinite in
  (* rolling edge-set fingerprint: XOR of per-edge hashes, O(1) per move *)
  let edge_hash a b =
    let lo = min a b and hi = max a b in
    Prng.hash64 (Int64.of_int ((lo * n) + hi))
  in
  let fp = ref 0L in
  for v = 0 to n - 1 do
    Flexcsr.iter_neighbors (fun w -> if v < w then fp := Int64.logxor !fp (edge_hash v w)) fx v
  done;
  let seen : (int64, int) Hashtbl.t = Hashtbl.create 1024 in
  let windowq : int64 Queue.t = Queue.create () in
  let push_state f =
    (match Hashtbl.find_opt seen f with
    | Some c -> Hashtbl.replace seen f (c + 1)
    | None -> Hashtbl.add seen f 1);
    Queue.push f windowq;
    if Queue.length windowq > cfg.window then begin
      let old = Queue.pop windowq in
      match Hashtbl.find_opt seen old with
      | Some 1 -> Hashtbl.remove seen old
      | Some c -> Hashtbl.replace seen old (c - 1)
      | None -> ()
    end
  in
  push_state !fp;
  let probes = ref 0 and moves = ref 0 and deletions = ref 0 in
  let rounds = ref 0 in
  let outcome = ref Dynamics.Round_limit in
  let sampled_verdict = ref false in
  let trace = ref [] in
  let samples = ref [] in
  let last_sample_round = ref (-1) in
  let take_sample round =
    if cfg.trajectory_sources > 0 && round <> !last_sample_round then begin
      last_sample_round := round;
      (* negative substream indices: the per-vertex generator streams own
         [0..n), see Prng.substream *)
      let srng = Prng.substream cfg.traj_seed (-2 - round) in
      let k = min cfg.trajectory_sources n in
      let sources = Prng.sample_distinct srng ~n ~k in
      let stats = Bitbfs.sample_stats ?pool bsc fx ~sources in
      let dia = ref 0 and total = ref 0 in
      Array.iter
        (fun (s : Bitbfs.stats) ->
          if s.ecc > !dia then dia := s.ecc;
          total := !total + s.sum)
        stats;
      let denom = float_of_int (k * max 1 (n - 1)) in
      samples :=
        {
          s_round = round;
          s_moves = !moves;
          s_diameter_lb = !dia;
          s_mean_dist = float_of_int !total /. denom;
        }
        :: !samples
    end
  in
  let after_cost reached s e =
    if reached < n then inf
    else if max_game then e
    else s
  in
  (* Neutral-deletion scan, mirroring Dynamics.find_neutral_deletion: Max
     only, sorted-row order, first drop with exact delta < 1. *)
  let find_deletion v row ecc_v =
    let found = ref None in
    let i = ref 0 in
    while !found = None && !i < Array.length row do
      let drop = row.(!i) in
      incr i;
      let reached, _, e = Flexcsr.bfs_delete_stats fx v ~drop ~dist:dist_x ~queue in
      Telemetry.incr m_bfs;
      let d = (if reached < n then inf else e) - ecc_v in
      if d < 1 then found := Some (Swap.Delete { actor = v; drop }, d)
    done;
    !found
  in
  (* One sampled activation of agent [v]: the candidate stream is shared
     with Dynamics (identical rng consumption); sum-version candidates are
     first screened by the batched lower bound, the rest (and all
     max-version ones) get one exact mutation-free BFS. *)
  let probe v =
    Telemetry.incr m_probes;
    incr probes;
    let deg = Flexcsr.degree fx v in
    if deg = 0 then None
    else begin
      let reached, sum_v, ecc_v = Flexcsr.bfs_stats fx v ~dist:dist_v ~queue in
      Telemetry.incr m_bfs;
      if reached < n then invalid_arg "Scale_dynamics: graph became disconnected";
      let row = Flexcsr.neighbors fx v in
      let deletion =
        if cfg.allow_deletions && max_game then
          find_deletion v row ecc_v
        else None
      in
      match deletion with
      | Some _ as d -> d
      | None ->
        if deg >= n - 1 then None
        else begin
          let cost_v =
            if max_game then ecc_v else sum_v
          in
          let pairs =
            Dynamics.draw_sampled_candidates rng ~deg ~n ~budget:cfg.budget
          in
          (* dedup candidates: repeated (drop, add) draws share bound,
             exact delta and bookkeeping *)
          let ncand = ref 0 in
          let cand_drop = Array.make cfg.budget 0 in
          let cand_add = Array.make cfg.budget 0 in
          let cand_slot = Array.make cfg.budget 0 in
          let cand_delta = Array.make cfg.budget max_int in
          let acc = Array.make cfg.budget 0 in
          let cand_key = Hashtbl.create 32 in
          let pair_cand = Array.make cfg.budget (-1) in
          Array.iteri
            (fun pi (di, add) ->
              let drop = row.(di) in
              if
                add <> v && add <> drop
                && not (Array.exists (fun w -> w = add) row)
              then
                match Hashtbl.find_opt cand_key (drop, add) with
                | Some c -> pair_cand.(pi) <- c
                | None ->
                  let c = !ncand in
                  incr ncand;
                  cand_drop.(c) <- drop;
                  cand_add.(c) <- add;
                  cand_delta.(c) <- max_int;
                  Hashtbl.add cand_key (drop, add) c;
                  pair_cand.(pi) <- c)
            pairs;
          if !ncand = 0 then None
          else begin
            if not max_game then begin
              (* one BFS per distinct drop: distances from v in G − vw,
                 folded into base = Σ_u min(dd_w(u), 2 + d_v(u)) *)
              let drop_slot = Hashtbl.create 8 in
              let nrows = ref 0 in
              for c = 0 to !ncand - 1 do
                let w = cand_drop.(c) in
                (match Hashtbl.find_opt drop_slot w with
                | Some slot -> cand_slot.(c) <- slot
                | None ->
                  let slot = !nrows in
                  incr nrows;
                  Hashtbl.add drop_slot w slot;
                  cand_slot.(c) <- slot;
                  let dd = get_row slot in
                  let _ = Flexcsr.bfs_delete_stats fx v ~drop:w ~dist:dd ~queue in
                  Telemetry.incr m_bfs;
                  let b = ref 0 in
                  for u = 0 to n - 1 do
                    let ddu = dd.(u) in
                    let ddu = if ddu < 0 then inf else ddu in
                    b := !b + min ddu (2 + dist_v.(u))
                  done;
                  row_base.(slot) <- !b);
                acc.(c) <- row_base.(cand_slot.(c))
              done;
              (* one bit-parallel batch over the distinct adds refines the
                 base with min(·, 1 + d(x,u)) as the waves arrive *)
              let src_of_add = Hashtbl.create 32 in
              let srcs = Array.make !ncand 0 in
              let nsrc = ref 0 in
              let cands_by_src = Array.make !ncand [] in
              for c = 0 to !ncand - 1 do
                let x = cand_add.(c) in
                let si =
                  match Hashtbl.find_opt src_of_add x with
                  | Some si -> si
                  | None ->
                    let si = !nsrc in
                    incr nsrc;
                    Hashtbl.add src_of_add x si;
                    srcs.(si) <- x;
                    si
                in
                cands_by_src.(si) <- c :: cands_by_src.(si)
              done;
              let pos = ref 0 in
              while !pos < !nsrc do
                let k = min Bitbfs.max_sources (!nsrc - !pos) in
                let base_i = !pos in
                Bitbfs.run ?pool bsc fx
                  ~sources:(Array.sub srcs base_i k)
                  ~visit:(fun u wave bits ->
                    Bitbfs.iter_bits
                      (fun i ->
                        List.iter
                          (fun c ->
                            let dd = rows.(cand_slot.(c)) in
                            let ddu = dd.(u) in
                            let ddu = if ddu < 0 then inf else ddu in
                            let a = min ddu (2 + dist_v.(u)) in
                            let b = min a (1 + wave) in
                            acc.(c) <- acc.(c) + b - a)
                          cands_by_src.(base_i + i))
                      bits);
                pos := !pos + k
              done
            end;
            (* decide in draw order under the running cutoff, exactly as
               Dynamics.sampled_move does through Swap_eval.delta_below *)
            let best = ref None in
            Array.iteri
              (fun pi _ ->
                let c = pair_cand.(pi) in
                if c >= 0 then begin
                  let cutoff =
                    match !best with None -> 0 | Some (_, bd) -> bd
                  in
                  let certified =
                    (not max_game)
                    && cand_delta.(c) = max_int
                    && acc.(c) - cost_v >= cutoff
                  in
                  if certified then Telemetry.incr m_certified
                  else begin
                    let d =
                      if cand_delta.(c) <> max_int then cand_delta.(c)
                      else begin
                        let drop = cand_drop.(c) and add = cand_add.(c) in
                        let reached, s, e =
                          Flexcsr.bfs_swap_stats fx v ~drop ~add ~dist:dist_x
                            ~queue
                        in
                        Telemetry.incr m_bfs;
                        Telemetry.incr m_exact;
                        let d = after_cost reached s e - cost_v in
                        cand_delta.(c) <- d;
                        d
                      end
                    in
                    if d < cutoff then
                      best :=
                        Some
                          ( Swap.Swap
                              { actor = v; drop = cand_drop.(c); add = cand_add.(c) },
                            d )
                  end
                end)
              pairs;
            !best
          end
        end
    end
  in
  (* Full deterministic first-improving scan: the Exact_scan confirmation,
     replicating the enumeration order of Swap.iter_moves (sorted drops ×
     ascending adds) behind Dynamics's quiet-pass. *)
  let exact_first_improving v =
    let deg = Flexcsr.degree fx v in
    if deg = 0 then None
    else begin
      let reached, sum_v, ecc_v = Flexcsr.bfs_stats fx v ~dist:dist_v ~queue in
      Telemetry.incr m_bfs;
      ignore reached;
      let row = Flexcsr.neighbors fx v in
      let deletion =
        if cfg.allow_deletions && max_game then
          find_deletion v row ecc_v
        else None
      in
      match deletion with
      | Some _ as d -> d
      | None ->
        let cost_v =
          if max_game then ecc_v else sum_v
        in
        let found = ref None in
        (try
           Array.iter
             (fun drop ->
               for add = 0 to n - 1 do
                 if add <> v && not (Flexcsr.mem_edge fx v add) then begin
                   let reached, s, e =
                     Flexcsr.bfs_swap_stats fx v ~drop ~add ~dist:dist_x ~queue
                   in
                   Telemetry.incr m_bfs;
                   let d = after_cost reached s e - cost_v in
                   if d < 0 then begin
                     found := Some (Swap.Swap { actor = v; drop; add }, d);
                     raise Exit
                   end
                 end
               done)
             row
         with Exit -> ());
        !found
    end
  in
  let exact_scan () =
    let found = ref None in
    let v = ref 0 in
    while !found = None && !v < n do
      found := exact_first_improving !v;
      incr v
    done;
    !found
  in
  let apply_move mv d =
    (match mv with
    | Swap.Swap { actor; drop; add } ->
      Flexcsr.remove_edge fx actor drop;
      Flexcsr.add_edge fx actor add;
      fp := Int64.logxor !fp (edge_hash actor drop);
      fp := Int64.logxor !fp (edge_hash actor add)
    | Swap.Delete { actor; drop } ->
      Flexcsr.remove_edge fx actor drop;
      incr deletions;
      Telemetry.incr m_deletions;
      fp := Int64.logxor !fp (edge_hash actor drop));
    Log.debug (fun m -> m "move %d: %s (delta %d)" !moves (Swap.move_to_string mv) d);
    if cfg.record_trace then trace := (mv, d) :: !trace;
    incr moves;
    Telemetry.incr m_moves;
    (* deletions strictly shrink the edge set, so only swaps can revisit *)
    (match mv with
    | Swap.Swap _ when Hashtbl.mem seen !fp ->
      outcome := Dynamics.Cycled;
      push_state !fp;
      raise Exit
    | _ -> ());
    push_state !fp
  in
  let slots = if cfg.probes_per_round <= 0 then n else cfg.probes_per_round in
  let quiesce = ref 0 in
  take_sample 0;
  (try
     while !rounds < cfg.max_rounds do
       incr rounds;
       let progressed = ref false in
       for _slot = 0 to slots - 1 do
         let v = Prng.int rng n in
         match probe v with
         | Some (mv, d) ->
           apply_move mv d;
           progressed := true;
           quiesce := 0
         | None -> (
           incr quiesce;
           match cfg.confirm with
           | Quiescence p when !quiesce >= p ->
             outcome := Dynamics.Converged;
             sampled_verdict := true;
             raise Exit
           | _ -> ())
       done;
       if cfg.trajectory_every > 0 && !rounds mod cfg.trajectory_every = 0 then
         take_sample !rounds;
       if (not !progressed) && cfg.confirm = Exact_scan then begin
         (* quiet round: confirm with the full scan, as the exact engine
            does; a found move is not applied under the sampled rule *)
         match exact_scan () with
         | None ->
           outcome := Dynamics.Converged;
           raise Exit
         | Some _ -> ()
       end
     done
   with Exit -> ());
  take_sample !rounds;
  Log.info (fun m ->
      m "%s scale dynamics: %s after %d rounds, %d probes, %d moves"
        (Game.to_string cfg.game)
        (match !outcome with
        | Dynamics.Converged ->
          if !sampled_verdict then "converged (sampled verdict)" else "converged"
        | Dynamics.Cycled -> "cycled"
        | Dynamics.Round_limit -> "round limit")
        !rounds !probes !moves);
  Telemetry.incr m_runs;
  Telemetry.add m_rounds !rounds;
  {
    outcome = !outcome;
    sampled_verdict = !sampled_verdict;
    rounds = !rounds;
    probes = !probes;
    moves = !moves;
    deletions = !deletions;
    final = fx;
    final_m = Flexcsr.m fx;
    trajectory = List.rev !samples;
    trace = List.rev !trace;
  }
