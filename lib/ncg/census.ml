(* Shard spans cover one [fold ~lo ~hi] range each; the sequential census
   is the single-shard case, so [census.shard.calls] doubles as the shard
   count of the last run. Canonical hits are equilibria whose isomorphism
   class was already represented inside the shard. *)
let m_shard = Telemetry.span "census.shard"

let m_trees = Telemetry.counter "census.trees_classified"

let m_canon_hits = Telemetry.counter "census.canon_hits"

let m_canon_misses = Telemetry.counter "census.canon_misses"

type tree_census = {
  n : int;
  total : int;
  equilibria : int;
  stars : int;
  double_stars : int;
  max_eq_diameter : int;
  witnesses_verified : int;
}

(* Mutable per-shard accumulator: the sequential census is the
   single-shard case, and the parallel census merges one of these per
   chunk (all fields combine with + or max, so merge order is
   irrelevant). *)
type tree_tally = {
  mutable t_total : int;
  mutable t_equilibria : int;
  mutable t_stars : int;
  mutable t_double_stars : int;
  mutable t_max_diameter : int;
  mutable t_witnesses : int;
}

let fresh_tally () =
  {
    t_total = 0;
    t_equilibria = 0;
    t_stars = 0;
    t_double_stars = 0;
    t_max_diameter = 0;
    t_witnesses = 0;
  }

let merge_tally a b =
  {
    t_total = a.t_total + b.t_total;
    t_equilibria = a.t_equilibria + b.t_equilibria;
    t_stars = a.t_stars + b.t_stars;
    t_double_stars = a.t_double_stars + b.t_double_stars;
    t_max_diameter = max a.t_max_diameter b.t_max_diameter;
    t_witnesses = a.t_witnesses + b.t_witnesses;
  }

let classify_tree game tally g =
  let record_eq g =
    (* the shape classification is cheap; cross-validate every accepted
       tree against the generic checker so the census is fully verified *)
    assert (Equilibrium.is_equilibrium game g);
    tally.t_equilibria <- tally.t_equilibria + 1;
    if Tree_eq.is_star g then tally.t_stars <- tally.t_stars + 1;
    if Tree_eq.is_double_star g then
      tally.t_double_stars <- tally.t_double_stars + 1;
    match Metrics.diameter g with
    | Some d -> if d > tally.t_max_diameter then tally.t_max_diameter <- d
    | None -> assert false
  in
  tally.t_total <- tally.t_total + 1;
  Telemetry.incr m_trees;
  match game with
  | Game.Sum ->
    if Tree_eq.is_star g then record_eq g
    else begin
      (* Theorem 1 witness: verified-improving swap on every non-star *)
      match Tree_eq.theorem1_witness g with
      | Some _ -> tally.t_witnesses <- tally.t_witnesses + 1
      | None ->
        (* diameter <= 2 tree that is not a star: impossible *)
        assert false
    end
  | Game.Max ->
    if Tree_eq.max_eq_tree g then record_eq g
    else begin
      match Tree_eq.theorem4_witness g with
      | Some _ -> tally.t_witnesses <- tally.t_witnesses + 1
      | None ->
        (* diameter <= 3 non-equilibrium: confirm with the generic
           checker that an improving move indeed exists *)
        assert (not (Equilibrium.is_equilibrium Game.Max g));
        tally.t_witnesses <- tally.t_witnesses + 1
    end
  | Game.Alpha _ ->
    (* no closed-form shape theorem for the α-game: the generic checker
       is both the classifier and, on non-equilibria, the witness (it
       exhibits the improving Buy/Sell/Swap_owned move) *)
    if Equilibrium.is_equilibrium game g then record_eq g
    else tally.t_witnesses <- tally.t_witnesses + 1

let census_of_tally n t =
  {
    n;
    total = t.t_total;
    equilibria = t.t_equilibria;
    stars = t.t_stars;
    double_stars = t.t_double_stars;
    max_eq_diameter = t.t_max_diameter;
    witnesses_verified = t.t_witnesses;
  }

let tree_census ?pool game n =
  let tally =
    match pool with
    | Some pool when Pool.jobs pool > 1 ->
      (* shard the Prüfer rank space; each chunk re-seeds its own
         odometer, so shards are independent and cover [0, n^(n-2)) *)
      Pool.fold_chunks pool ~n:(Enumerate.count_trees n)
        ~fold:(fun ~lo ~hi ->
          let t0 = Telemetry.start () in
          let tally = fresh_tally () in
          Enumerate.trees_in n ~lo ~hi (classify_tree game tally);
          Telemetry.stop m_shard t0;
          tally)
        ~reduce:merge_tally ~zero:(fresh_tally ())
    | _ ->
      let t0 = Telemetry.start () in
      let tally = fresh_tally () in
      Enumerate.trees n (classify_tree game tally);
      Telemetry.stop m_shard t0;
      tally
  in
  census_of_tally n tally

let merge_tree_census a b =
  if a.n <> b.n then invalid_arg "Census.merge_tree_census: different n";
  {
    n = a.n;
    total = a.total + b.total;
    equilibria = a.equilibria + b.equilibria;
    stars = a.stars + b.stars;
    double_stars = a.double_stars + b.double_stars;
    max_eq_diameter = max a.max_eq_diameter b.max_eq_diameter;
    witnesses_verified = a.witnesses_verified + b.witnesses_verified;
  }

type graph_census = {
  n : int;
  connected : int;
  equilibria_labeled : int;
  equilibria_iso : Graph.t list;
  diameter_histogram : (int * int) list;
  max_diameter : int;
}

(* One shard of the connected-graph sweep: counts plus the first
   representative of each isomorphism class in mask order. Keeping reps
   as an ordered assoc list makes the chunk-ordered merge reproduce the
   sequential first-seen choice exactly. *)
type graph_shard = {
  s_connected : int;
  s_labeled : int;
  s_reps : (string * Graph.t) list;
}

let empty_shard = { s_connected = 0; s_labeled = 0; s_reps = [] }

(* Atlas key for one labeled graph's equilibrium verdict. The verdict is
   per labeled graph (graph6), not per isomorphism class, so a probe can
   never change which representative a shard reports first. *)
let atlas_key game g = "eq:" ^ Game.to_string game ^ ":" ^ Graph6.encode g

(* Consult-then-populate: a hit short-circuits the equilibrium scan, a
   miss computes and appends. Identical verdicts either way, so census
   outputs are byte-identical with the atlas on or off. *)
let is_equilibrium_via ?atlas game g =
  match atlas with
  | None -> Equilibrium.is_equilibrium game g
  | Some a -> (
      let key = atlas_key game g in
      match Atlas.find a key with
      | Some v -> v = "1"
      | None ->
          let r = Equilibrium.is_equilibrium game g in
          Atlas.add a ~key ~value:(if r then "1" else "0");
          r)

let graph_shard_of_range ?atlas game n ~lo ~hi =
  let connected = ref 0 in
  let labeled = ref 0 in
  let seen = Hashtbl.create 64 in
  let reps = ref [] in
  let t0 = Telemetry.start () in
  Enumerate.connected_graphs_in n ~lo ~hi (fun g ->
      incr connected;
      if is_equilibrium_via ?atlas game g then begin
        incr labeled;
        let key = Canon.canonical_form g in
        if Hashtbl.mem seen key then Telemetry.incr m_canon_hits
        else begin
          Telemetry.incr m_canon_misses;
          Hashtbl.add seen key ();
          reps := (key, g) :: !reps
        end
      end);
  Telemetry.stop m_shard t0;
  { s_connected = !connected; s_labeled = !labeled; s_reps = List.rev !reps }

let merge_shard a b =
  (* first-seen-wins per class; [a] precedes [b] in mask order. The rep
     lists hold every equilibrium class a shard saw — 374 for sum at
     n = 7, 4161 at n = 8 — and the assoc scan is quadratic in them. *)
  let fresh =
    List.filter (fun (k, _) -> not (List.mem_assoc k a.s_reps)) b.s_reps
  in
  (* representatives discovered independently in two shards are canonical
     hits resolved at merge time rather than inside a shard *)
  Telemetry.add m_canon_hits (List.length b.s_reps - List.length fresh);
  {
    s_connected = a.s_connected + b.s_connected;
    s_labeled = a.s_labeled + b.s_labeled;
    s_reps = a.s_reps @ fresh;
  }

let census_of_graph_shard n shard =
  let iso = List.map snd shard.s_reps in
  let diams =
    List.map
      (fun g -> match Metrics.diameter g with Some d -> d | None -> assert false)
      iso
  in
  {
    n;
    connected = shard.s_connected;
    equilibria_labeled = shard.s_labeled;
    equilibria_iso = iso;
    diameter_histogram = Stats.histogram (Array.of_list diams);
    max_diameter = List.fold_left max 0 diams;
  }

let graph_census ?atlas ?pool game n =
  let total = Enumerate.graph_mask_count n in
  let shard =
    match pool with
    | Some pool when Pool.jobs pool > 1 ->
      (* the atlas handle is domain-safe: the index is sharded under
         mutexes and appends funnel through its single appender *)
      Pool.fold_chunks pool ~n:total
        ~fold:(fun ~lo ~hi -> graph_shard_of_range ?atlas game n ~lo ~hi)
        ~reduce:merge_shard ~zero:empty_shard
    | _ -> graph_shard_of_range ?atlas game n ~lo:0 ~hi:total
  in
  census_of_graph_shard n shard

let merge_graph_census a b =
  (* the serving layer splits a requested shard into deadline-checked
     sub-ranges; merging re-deduplicates representatives by canonical
     form, first-seen (= lowest mask, [a] before [b]) wins — the same
     discipline as the parallel census merge *)
  if a.n <> b.n then invalid_arg "Census.merge_graph_census: different n";
  let key g = Canon.canonical_form g in
  let a_keys = List.map key a.equilibria_iso in
  let fresh =
    List.filter (fun g -> not (List.mem (key g) a_keys)) b.equilibria_iso
  in
  let shard =
    {
      s_connected = a.connected + b.connected;
      s_labeled = a.equilibria_labeled + b.equilibria_labeled;
      s_reps =
        List.map (fun g -> (key g, g)) a.equilibria_iso
        @ List.map (fun g -> (key g, g)) fresh;
    }
  in
  census_of_graph_shard a.n shard

(* --- orderly census -------------------------------------------------------

   Same outputs as the rank-range graph census, produced from one
   canonical representative per isomorphism class instead of 2^(n(n-1)/2)
   labeled copies: labeled counts come from orbit-stabilizer
   (n!/|Aut| copies per class, summed), and the reported representative
   of each equilibrium class is the minimum-mask labeling — exactly the
   copy the mask sweep sees first. The record is therefore byte-identical
   to [graph_census] wherever both can run, while the class walk reaches
   n = 11 where the mask space is 2^55. *)

let rec factorial n = if n <= 1 then 1 else n * factorial (n - 1)

let orderly_census_in ?atlas game n ~lo ~hi =
  (* orbit-stabilizer counting scales one verdict per class by n!/|Aut|,
     which is sound only when the verdict is isomorphism-invariant. The
     α-game's is not: edge ownership (default: the smaller endpoint) is
     labeling-dependent, so two copies of one class can disagree. *)
  if not (Game.is_basic game) then
    invalid_arg
      (Printf.sprintf
         "Census.orderly_census: game %s is not isomorphism-invariant; use \
          the rank-range census"
         (Game.to_string game));
  let connected = ref 0 in
  let labeled = ref 0 in
  let reps = ref [] in
  let copies_of_class = factorial n in
  let t0 = Telemetry.start () in
  Orderly.iter ~lo ~hi n (fun g cert ->
      let copies = copies_of_class / cert.Canon.aut_count in
      connected := !connected + copies;
      if is_equilibrium_via ?atlas game g then begin
        labeled := !labeled + copies;
        let rep = Orderly.representative g cert in
        reps := (Orderly.mask_of_graph rep, rep) :: !reps
      end);
  Telemetry.stop m_shard t0;
  (* ascending mask order = the order the legacy sweep first sees each
     class; shards cover disjoint class sets, so merges stay sorted *)
  let reps = List.sort (fun (a, _) (b, _) -> compare a b) !reps in
  census_of_graph_shard n
    {
      s_connected = !connected;
      s_labeled = !labeled;
      s_reps = List.map (fun (k, g) -> (string_of_int k, g)) reps;
    }

let merge_orderly_census a b =
  if a.n <> b.n then invalid_arg "Census.merge_orderly_census: different n";
  (* disjoint sorted class lists: a plain merge by mask key keeps the
     whole list in legacy first-seen order whatever the merge order of
     adjacent shards *)
  let key = Orderly.mask_of_graph in
  let rec merge xs ys =
    match (xs, ys) with
    | [], l | l, [] -> l
    | x :: xt, y :: yt ->
      if key x <= key y then x :: merge xt ys else y :: merge xs yt
  in
  let iso = merge a.equilibria_iso b.equilibria_iso in
  census_of_graph_shard a.n
    {
      s_connected = a.connected + b.connected;
      s_labeled = a.equilibria_labeled + b.equilibria_labeled;
      s_reps = List.map (fun g -> ("", g)) iso;
    }

let orderly_census ?atlas ?pool game n =
  let total = Orderly.space n in
  match pool with
  | Some pool when Pool.jobs pool > 1 ->
    Pool.fold_chunks pool ~n:total
      ~fold:(fun ~lo ~hi -> orderly_census_in ?atlas game n ~lo ~hi)
      ~reduce:merge_orderly_census
      ~zero:(orderly_census_in game n ~lo:0 ~hi:0)
  | _ -> orderly_census_in ?atlas game n ~lo:0 ~hi:total

(* --- unified shard API ---------------------------------------------------- *)

type kind = Trees | Graphs | Orderly

type shard = {
  kind : kind;
  game : Game.t;
  n : int;
  lo : int;
  hi : int;
}

type result =
  | Tree_result of tree_census
  | Graph_result of graph_census
  | Orderly_result of graph_census

let kind_name = function
  | Trees -> "trees"
  | Graphs -> "graphs"
  | Orderly -> "orderly"

let kind_of_name = function
  | "trees" -> Some Trees
  | "graphs" -> Some Graphs
  | "orderly" -> Some Orderly
  | _ -> None

let max_shard_vertices = function
  | Trees -> Enumerate.max_tree_vertices
  | Graphs -> Enumerate.max_graph_vertices
  | Orderly -> Orderly.max_vertices

let shard_space kind n =
  match kind with
  | Trees -> Enumerate.count_trees n
  | Graphs -> Enumerate.graph_mask_count n
  | Orderly -> Orderly.space n

let validate_shard s =
  let max_n = max_shard_vertices s.kind in
  if s.kind = Orderly && not (Game.is_basic s.game) then
    Error
      (Printf.sprintf
         "orderly census requires an isomorphism-invariant game (sum or \
          max), got %s"
         (Game.to_string s.game))
  else if s.n < 1 || s.n > max_n then
    Error
      (Printf.sprintf "census n must be in [1, %d] for kind %s, got %d" max_n
         (kind_name s.kind) s.n)
  else begin
    let space = shard_space s.kind s.n in
    if s.lo < 0 || s.hi > space || s.lo > s.hi then
      Error
        (Printf.sprintf "shard range must satisfy 0 <= lo <= hi <= %d" space)
    else Ok ()
  end

let full_shard kind game n =
  if n < 1 || n > max_shard_vertices kind then
    invalid_arg
      (Printf.sprintf "Census.full_shard: n must be in [1, %d] for kind %s"
         (max_shard_vertices kind) (kind_name kind));
  { kind; game; n; lo = 0; hi = shard_space kind n }

let run_shard ?atlas s =
  (match validate_shard s with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Census.run_shard: " ^ msg));
  match s.kind with
  | Trees ->
    (* trees ignore the atlas: the shape classification + closed-form
       witnesses are cheaper than an index probe per tree *)
    let t0 = Telemetry.start () in
    let tally = fresh_tally () in
    Enumerate.trees_in s.n ~lo:s.lo ~hi:s.hi (classify_tree s.game tally);
    Telemetry.stop m_shard t0;
    Tree_result (census_of_tally s.n tally)
  | Graphs ->
    Graph_result
      (census_of_graph_shard s.n
         (graph_shard_of_range ?atlas s.game s.n ~lo:s.lo ~hi:s.hi))
  | Orderly ->
    Orderly_result (orderly_census_in ?atlas s.game s.n ~lo:s.lo ~hi:s.hi)

let split s ~parts =
  if parts < 1 then invalid_arg "Census.split: parts must be >= 1";
  let width = s.hi - s.lo in
  if width = 0 then [ s ]
  else begin
    let k = min parts width in
    List.init k (fun i ->
        { s with lo = s.lo + (i * width / k); hi = s.lo + ((i + 1) * width / k) })
  end

let merge_result a b =
  match (a, b) with
  | Tree_result a, Tree_result b -> Tree_result (merge_tree_census a b)
  | Graph_result a, Graph_result b -> Graph_result (merge_graph_census a b)
  | Orderly_result a, Orderly_result b ->
    Orderly_result (merge_orderly_census a b)
  | _ -> invalid_arg "Census.merge_result: mixed census kinds"

let tree_census_in game n ~lo ~hi =
  match run_shard { kind = Trees; game; n; lo; hi } with
  | Tree_result c -> c
  | Graph_result _ | Orderly_result _ -> assert false

let graph_census_in ?atlas game n ~lo ~hi =
  match run_shard ?atlas { kind = Graphs; game; n; lo; hi } with
  | Graph_result c -> c
  | Tree_result _ | Orderly_result _ -> assert false
