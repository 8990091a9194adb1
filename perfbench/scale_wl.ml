(* scale-ba: rounds of the large-n engine on seeded BA graphs.
   n = 10^5, m = 2; a round is 32 probes of budget 16, game sum,
   quiescence confirmation and the CLI's default trajectory sampling,
   on one domain. Round k of a run uses its own graph, generated from
   the seed and k, so a run's median averages over inputs; round 0 on
   seed s is exactly `bncg dynamics --engine scale --seed s --max-rounds 1`. *)

open Pbcore

let n = 100_000

let ba_m = 2

let probes = 32

let budget = 16

(* exact figures of the default seed; other seeds get the invariants *)
let default_seed = 1

let default_expect = (probes, 32, 199_996)

let config seed =
  {
    (Scale_dynamics.default_config Game.Sum) with
    Scale_dynamics.budget;
    probes_per_round = probes;
    max_rounds = 1;
    confirm = Scale_dynamics.Quiescence 512;
    window = 1 lsl 20;
    trajectory_every = 8;
    trajectory_sources = 32;
    traj_seed = seed;
    record_trace = false;
  }

let graphs = 3

let graph_seed seed k = seed + (k * 1_000_003)

let generate seed k = Scale_gen.ba ~seed:(graph_seed seed k) ~n ~m:ba_m

let round seed k csr =
  let s = graph_seed seed k in
  Scale_dynamics.run ~rng:(Prng.substream s (-1)) (config s) csr

let gate seed k csr (r : Scale_dynamics.result) =
  let fin = r.Scale_dynamics.final in
  let scratch () = Array.make n 0 in
  let reached, _, _ = Flexcsr.bfs_stats fin 0 ~dist:(scratch ()) ~queue:(scratch ()) in
  [
    ("one round", r.Scale_dynamics.rounds = 1);
    ("probes", r.Scale_dynamics.probes = probes);
    ("m preserved", r.Scale_dynamics.final_m = Csr.m csr && Flexcsr.m fin = Csr.m csr);
    ("connected", reached = n);
    ("moves <= probes", r.Scale_dynamics.moves <= r.Scale_dynamics.probes);
  ]
  @
  if graph_seed seed k <> default_seed then []
  else
    [
      ( "default-seed figures",
        (r.Scale_dynamics.probes, r.Scale_dynamics.moves, r.Scale_dynamics.final_m)
        = default_expect );
    ]

(* Set-up generates the run's [graphs] inputs, graph 0 twice (the copies
   must be equal); the set-up time is the median generation time. Only
   graph 0 is kept: the others are generated again, untimed, before
   their rounds, so one input at a time is live. *)
let setup t seed =
  let timed k = time (fun () -> generate seed k) in
  let first, dt0 = timed 0 in
  let again, dt1 = timed 0 in
  record t [ ("deterministic generator", Csr.equal first again) ];
  let rest = List.init (graphs - 1) (fun k -> snd (timed (k + 1))) in
  (first, median (dt0 :: dt1 :: rest))

(* [peak_rss_mb] is read after the second round: a run makes two or
   three rounds depending on machine speed, and each one adds heap
   fragmentation to the high-water mark. *)
let peak_after_rounds = 2

let run seed ~seconds =
  let t = tally () in
  let first, setup_s = setup t seed in
  let samples = ref [] and k = ref 0 and peak = ref nan in
  while List.fold_left ( +. ) 0. !samples < seconds do
    let g = !k mod graphs in
    let csr = if g = 0 then first else generate seed g in
    (* the previous round's garbage is collected before this one starts *)
    Gc.compact ();
    let r, dt = time (fun () -> round seed g csr) in
    record t (gate seed g csr r);
    samples := dt :: !samples;
    incr k;
    if !k = peak_after_rounds then peak := peak_rss_mb ()
  done;
  (t, setup_s, !samples, if Float.is_nan !peak then peak_rss_mb () else !peak)

let counter name = float_of_int (Telemetry.counter_value (Telemetry.counter name))

let mean_time k f =
  let _, dt =
    time (fun () ->
        for i = 0 to k - 1 do
          f i
        done)
  in
  dt /. float_of_int k

(* Per-call kernel costs on the workload's own graph: an exact swap BFS
   (Flexcsr.bfs_swap_stats) and a full 63-source Bitbfs batch. *)
let kernel_costs seed csr =
  let fx = Flexcsr.of_csr csr in
  let rng = Prng.substream seed 7 in
  let dist = Array.make n 0 and queue = Array.make n 0 in
  let rec pick_swap () =
    let v = Prng.int rng n in
    let nb = Flexcsr.neighbors fx v in
    let x = Prng.int rng n in
    if x = v || Flexcsr.mem_edge fx v x then pick_swap ()
    else (v, nb.(Prng.int rng (Array.length nb)), x)
  in
  let swaps = Array.init 24 (fun _ -> pick_swap ()) in
  let bfs_s =
    mean_time (Array.length swaps) (fun i ->
        let v, drop, add = swaps.(i) in
        ignore (Flexcsr.bfs_swap_stats fx v ~drop ~add ~dist ~queue))
  in
  let sc = Bitbfs.create_scratch n in
  let acc = ref 0 in
  let batches =
    Array.init 4 (fun _ -> Prng.sample_distinct rng ~n ~k:Bitbfs.max_sources)
  in
  let batch_s =
    mean_time (Array.length batches) (fun i ->
        Bitbfs.run sc fx ~sources:batches.(i) ~visit:(fun _ wave bits ->
            acc := !acc + (wave * (bits land 1))))
  in
  (bfs_s, batch_s)

(* Traced, on graph 0: the round with the program's own Telemetry
   counters on, between two untraced rounds whose mean is the overhead
   baseline; then the per-call kernel costs. Counts x per-call cost is
   reported as computed, not measured. *)
let traced seed =
  let t = tally () in
  let csr, ba_s = setup t seed in
  let timed_round () =
    Gc.compact ();
    let r, dt = time (fun () -> round seed 0 csr) in
    record t (gate seed 0 csr r);
    dt
  in
  let before = timed_round () in
  Telemetry.reset ();
  Telemetry.set_enabled true;
  let run_s = timed_round () in
  Telemetry.set_enabled false;
  let untraced = (before +. timed_round ()) /. 2. in
  let bfs_s, batch_s = kernel_costs seed csr in
  let bfs_runs = counter "scale.dynamics.bfs_runs" in
  let bit_runs = counter "scale.bitbfs.runs" in
  let computed = (bfs_runs *. bfs_s) +. (bit_runs *. batch_s) in
  let probes_done = counter "scale.dynamics.probes" in
  let metrics =
    [
      ("scale_gen.ba_s", ba_s);
      ("scale.run_s", run_s);
      ("flexcsr.bfs_ms", bfs_s *. 1e3);
      ("bitbfs.batch_ms", batch_s *. 1e3);
      ("scale.dynamics.probes", probes_done);
      ("scale.dynamics.bfs_runs", bfs_runs);
      ("scale.dynamics.exact_evals", counter "scale.dynamics.exact_evals");
      ("scale.dynamics.certified_skips", counter "scale.dynamics.certified_skips");
      ("scale.dynamics.moves", counter "scale.dynamics.moves");
      ("scale.bitbfs.runs", bit_runs);
      ("scale.bitbfs.words", counter "scale.bitbfs.words");
      ( "scale.skip_ratio",
        counter "scale.dynamics.certified_skips" /. (probes_done *. float_of_int budget) );
      ("scale.kernel_s_computed", computed);
      ("scale.unattributed_s", run_s -. computed);
      ("scale.trace_overhead_s", run_s -. untraced);
    ]
  in
  (t, run_s, metrics)
