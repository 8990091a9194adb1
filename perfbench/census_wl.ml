(* census-sum / census-max: back-to-back orderly censuses in one domain.
   The census input is fixed by (game, n); the seed only enters the
   fingerprint. Every census is checked against the known totals and a
   digest of its representative list, outside the timed region. *)

open Pbcore

type expect = {
  game : Game.t;
  n : int;
  classes : int;
  connected : int;
  eq_labeled : int;
  eq_classes : int;
  histogram : (int * int) list;
  digest : string;  (** of the representatives' graph6 lines, in order *)
}

let census_sum =
  {
    game = Game.Sum;
    n = 7;
    classes = 853;
    connected = 1866256;
    eq_labeled = 676456;
    eq_classes = 374;
    histogram = [ (1, 1); (2, 373) ];
    digest = "fdbbfa807333254874fbabc05ea08b17";
  }

let census_max =
  {
    game = Game.Max;
    n = 8;
    classes = 11117;
    connected = 251548592;
    eq_labeled = 100648;
    eq_classes = 24;
    histogram = [ (1, 1); (2, 12); (3, 11) ];
    digest = "abd0a698b17aa77d451610948031b93e";
  }

let rep_digest reps = digest_lines (List.map Graph6.encode reps)

let gate e (c : Census.graph_census) =
  let digest = rep_digest c.equilibria_iso in
  [
    ("connected", c.connected = e.connected);
    ("equilibria", c.equilibria_labeled = e.eq_labeled);
    ("classes", List.length c.equilibria_iso = e.eq_classes);
    ("histogram", c.diameter_histogram = e.histogram);
    ("digest " ^ digest, digest = e.digest);
  ]

let census e = Census.orderly_census e.game e.n

(* End-to-end: the first (cold) census is the set-up; warm censuses run
   until [seconds] of them have been timed. *)
let run e ~seconds =
  let t = tally () in
  let c, setup = time (fun () -> census e) in
  record t (gate e c);
  let samples = ref [] in
  while List.fold_left ( +. ) 0. !samples < seconds do
    let c, dt = time (fun () -> census e) in
    record t (gate e c);
    samples := dt :: !samples
  done;
  (t, setup, !samples)

let factorial n =
  let rec go k acc = if k <= 1 then acc else go (k - 1) (acc * k) in
  go n 1

let counter name = Telemetry.counter_value (Telemetry.counter name)

let untraced_census t e =
  let c, dt = time (fun () -> census e) in
  record t (gate e c);
  dt

(* Traced: the census rebuilt from the public layer functions with a
   timer around each call: Orderly.iter (generation + Canon.cert), the
   equilibrium check, and representative labelling. The overhead
   baseline is the mean of the warm untraced censuses run just before
   and just after it. *)
let traced e =
  let t = tally () in
  ignore (untraced_census t e);
  let before = untraced_census t e in
  Telemetry.reset ();
  Telemetry.set_enabled true;
  let copies_of_class = factorial e.n in
  let classes = ref 0 and connected = ref 0 and labeled = ref 0 and reps = ref [] in
  let t_cb = ref 0. and t_check = ref 0. and t_rep = ref 0. in
  let checks = ref 0 and rep_calls = ref 0 in
  let t0 = now () in
  Orderly.iter e.n (fun g cert ->
      let c0 = now () in
      let copies = copies_of_class / cert.Canon.aut_count in
      incr classes;
      connected := !connected + copies;
      let eq = Equilibrium.is_equilibrium e.game g in
      let c1 = now () in
      t_check := !t_check +. (c1 -. c0);
      incr checks;
      if eq then begin
        labeled := !labeled + copies;
        let rep = Orderly.representative g cert in
        t_rep := !t_rep +. (now () -. c1);
        incr rep_calls;
        reps := (Orderly.mask_of_graph rep, rep) :: !reps
      end;
      t_cb := !t_cb +. (now () -. c0));
  let iter_wall = now () -. t0 in
  let reps = List.map snd (List.sort (fun (a, _) (b, _) -> compare a b) !reps) in
  let diams = List.map (fun g -> Option.get (Metrics.diameter g)) reps in
  let traced_wall = now () -. t0 in
  Telemetry.set_enabled false;
  let replica =
    {
      Census.n = e.n;
      connected = !connected;
      equilibria_labeled = !labeled;
      equilibria_iso = reps;
      diameter_histogram = Stats.histogram (Array.of_list diams);
      max_diameter = List.fold_left max 0 diams;
    }
  in
  record t (("classes visited", !classes = e.classes) :: gate e replica);
  let untraced = (before +. untraced_census t e) /. 2. in
  let gen = iter_wall -. !t_cb in
  let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b in
  let metrics =
    [
      ("orderly.gen_cert_s", gen);
      ("orderly.representative_s", !t_rep);
      ("orderly.representative_calls", float_of_int !rep_calls);
      ( "orderly.accept_ratio",
        ratio (counter "census.orderly.generated") (counter "census.orderly.extensions") );
      ("equilibrium.check_s", !t_check);
      ("equilibrium.check_calls", float_of_int !checks);
      ("equilibrium.early_exit_ratio", ratio (counter "equilibrium.early_exits") !checks);
      ("census.unattributed_s", traced_wall -. gen -. !t_check -. !t_rep);
      ("census.trace_overhead_s", traced_wall -. untraced);
    ]
  in
  (t, traced_wall, metrics)
