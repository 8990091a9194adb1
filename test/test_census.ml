open Test_helpers

let test_tree_census_sum_small () =
  for n = 3 to 7 do
    let c = Census.tree_census Game.Sum n in
    check_int "total = n^(n-2)" (Enumerate.count_trees n) c.Census.total;
    check_int "equilibria are the n stars" n c.Census.equilibria;
    check_int "all stars" n c.Census.stars;
    check_int "diameter 2" 2 c.Census.max_eq_diameter;
    check_int "every non-star got a witness" (c.Census.total - n) c.Census.witnesses_verified
  done

let test_tree_census_max_small () =
  for n = 3 to 7 do
    let c = Census.tree_census Game.Max n in
    check_int "stars counted" n c.Census.stars;
    check_int "eq = stars + double stars"
      (c.Census.stars + c.Census.double_stars)
      c.Census.equilibria;
    check_true "diameter <= 3" (c.Census.max_eq_diameter <= 3)
  done;
  (* diameter 3 first attained at n = 6 (double_star 2 2) *)
  check_int "n=5 no double stars" 0 (Census.tree_census Game.Max 5).Census.double_stars;
  check_int "n=6 diameter 3" 3 (Census.tree_census Game.Max 6).Census.max_eq_diameter

let test_double_star_count_n6 () =
  (* labeled double stars with arms (2,2) on 6 vertices: choose the
     ordered root pair (30) then 3 of 4 remaining leaves for root a...
     combinatorially C(6,2)*C(4,2)/1 * ... = 15 unordered root pairs x
     C(4,2)=6 leaf splits / 2 for arm symmetry... the census says 90 *)
  check_int "n=6 double stars" 90 (Census.tree_census Game.Max 6).Census.double_stars

(* Differential cross-check of the census against an independent brute
   force: walk the whole Prüfer rank range with [trees_in] (no sharding,
   no pool) and run the generic equilibrium checker on every tree. By
   Theorem 1 the sum equilibria must be exactly the stars, and the tallies
   must agree with [tree_census]'s shortcut-based classification. *)
let brute_force_sum_census n =
  let total = ref 0 and equilibria = ref 0 and stars = ref 0 in
  Enumerate.trees_in n ~lo:0 ~hi:(Enumerate.count_trees n) (fun g ->
      Stdlib.incr total;
      let eq = Equilibrium.is_equilibrium Game.Sum g in
      let star = Tree_eq.is_star g in
      check_bool "sum equilibrium iff star (Theorem 1)" star eq;
      if eq then Stdlib.incr equilibria;
      if star then Stdlib.incr stars);
  (!total, !equilibria, !stars)

let differential_sum_census n =
  let total, equilibria, stars = brute_force_sum_census n in
  let c = Census.tree_census Game.Sum n in
  check_int "totals agree" total c.Census.total;
  check_int "equilibria agree" equilibria c.Census.equilibria;
  check_int "stars agree" stars c.Census.stars

let test_differential_sum_census_small () =
  for n = 2 to 6 do
    differential_sum_census n
  done

let test_differential_sum_census_n7 () = differential_sum_census 7

let test_graph_census_sum () =
  let c = Census.graph_census Game.Sum 4 in
  check_int "connected count" 38 c.Census.connected;
  check_int "labeled equilibria" 26 c.Census.equilibria_labeled;
  check_int "iso classes" 5 (List.length c.Census.equilibria_iso);
  check_int "max diameter" 2 c.Census.max_diameter;
  List.iter
    (fun g -> check_true "each representative verified" (Equilibrium.is_equilibrium Game.Sum g))
    c.Census.equilibria_iso

let test_graph_census_max () =
  let c = Census.graph_census Game.Max 5 in
  check_int "iso classes" 4 (List.length c.Census.equilibria_iso);
  List.iter
    (fun g -> check_true "verified" (Equilibrium.is_equilibrium Game.Max g))
    c.Census.equilibria_iso

let test_graph_census_max_diameter3_at_6 () =
  let c = Census.graph_census Game.Max 6 in
  check_int "diameter 3 attained" 3 c.Census.max_diameter

let test_histogram_consistent () =
  let c = Census.graph_census Game.Sum 5 in
  let total = List.fold_left (fun acc (_, k) -> acc + k) 0 c.Census.diameter_histogram in
  check_int "histogram covers all classes" (List.length c.Census.equilibria_iso) total

(* --- unified shard API ----------------------------------------------------- *)

let test_split_properties () =
  List.iter
    (fun (kind, n) ->
      let full = Census.full_shard kind Game.Sum n in
      List.iter
        (fun parts ->
          let pieces = Census.split full ~parts in
          check_true "at most parts pieces" (List.length pieces <= parts);
          (* adjacent, ascending, covering exactly [lo, hi) *)
          let cursor = ref full.Census.lo in
          List.iter
            (fun s ->
              check_int "adjacent to predecessor" !cursor s.Census.lo;
              check_true "non-empty piece" (s.Census.hi > s.Census.lo);
              cursor := s.Census.hi)
            pieces;
          check_int "covers the range" full.Census.hi !cursor;
          (* deterministic: a resumed run reproduces the boundaries *)
          check_true "split is deterministic"
            (pieces = Census.split full ~parts))
        [ 1; 2; 3; 7; 16; 1000 ])
    [ (Census.Trees, 5); (Census.Graphs, 4); (Census.Orderly, 6) ];
  (* an empty range stays a single empty shard *)
  let empty = { (Census.full_shard Census.Trees Game.Sum 5) with Census.lo = 9; hi = 9 } in
  (match Census.split empty ~parts:4 with
  | [ s ] -> check_true "empty shard preserved" (s.Census.lo = 9 && s.Census.hi = 9)
  | pieces -> check_int "one piece" 1 (List.length pieces))

let render_result r = Jsonx.to_string (Rpc.census_result r)

(* Sub-range shards carry their own kind and count only their own range;
   the whole-census functions are the full shard's typed projection. *)
let test_run_shard_sub_ranges () =
  let t = { (Census.full_shard Census.Trees Game.Max 5) with Census.lo = 10; hi = 90 } in
  (match Census.run_shard t with
  | Census.Tree_result c -> check_int "trees in [10, 90)" 80 c.Census.total
  | _ -> check_true "tree kind" false);
  let g = { (Census.full_shard Census.Graphs Game.Sum 4) with Census.lo = 8; hi = 40 } in
  let in_range = ref 0 in
  Enumerate.connected_graphs_in 4 ~lo:8 ~hi:40 (fun _ -> incr in_range);
  (match Census.run_shard g with
  | Census.Graph_result c ->
    check_int "connected graphs in [8, 40)" !in_range c.Census.connected
  | _ -> check_true "graph kind" false);
  let o = { (Census.full_shard Census.Orderly Game.Sum 5) with Census.lo = 2; hi = 14 } in
  (match Census.run_shard o with
  | Census.Orderly_result c ->
    let labeled = ref 0 in
    Orderly.iter ~lo:2 ~hi:14 5 (fun _ cert ->
        labeled := !labeled + (120 / cert.Canon.aut_count));
    check_int "labeled copies of roots [2, 14)" !labeled c.Census.connected
  | _ -> check_true "orderly kind" false);
  let full kind game n = render_result (Census.run_shard (Census.full_shard kind game n)) in
  check_true "tree_census = full Trees shard"
    (render_result (Census.Tree_result (Census.tree_census Game.Max 6))
    = full Census.Trees Game.Max 6);
  check_true "graph_census sum = full Orderly shard"
    (render_result (Census.Orderly_result (Census.graph_census Game.Sum 5))
    = full Census.Orderly Game.Sum 5);
  check_true "graph_census alpha:1 = full Graphs shard"
    (render_result (Census.Graph_result (Census.graph_census (Game.Alpha 1.) 4))
    = full Census.Graphs (Game.Alpha 1.) 4)

let test_graph_kind () =
  check_true "sum census is orderly" (Census.graph_kind Game.Sum = Census.Orderly);
  check_true "max census is orderly" (Census.graph_kind Game.Max = Census.Orderly);
  List.iter
    (fun a ->
      check_true "alpha census is rank-range"
        (Census.graph_kind (Game.Alpha a) = Census.Graphs))
    [ 0.5; 1.; 4. ]

(* The orderly census record must equal the rank-range one field for
   field — counts, histogram, and the representative list in the same
   (first-seen mask) order — so the game's choice of enumeration never
   shows in the output. *)
let orderly_identity game n =
  let rank = Census.run_shard (Census.full_shard Census.Graphs game n) in
  let orderly = Census.run_shard (Census.full_shard Census.Orderly game n) in
  match (rank, orderly) with
  | Census.Graph_result a, Census.Orderly_result b ->
    check_true
      (Printf.sprintf "%s n=%d: orderly census = rank-range census"
         (Game.to_string game) n)
      (String.equal
         (Jsonx.to_string (Rpc.graph_census_result a))
         (Jsonx.to_string (Rpc.graph_census_result b)))
  | _ -> check_true "graph and orderly kinds" false

let test_orderly_identity_small () =
  List.iter
    (fun game ->
      for n = 3 to 5 do
        orderly_identity game n
      done)
    [ Game.Sum; Game.Max ]

let test_orderly_identity_n6 () =
  orderly_identity Game.Sum 6;
  orderly_identity Game.Max 6

let test_merge_result_rejects_mixed () =
  let t = Census.run_shard (Census.full_shard Census.Trees Game.Sum 4) in
  let g = Census.run_shard (Census.full_shard Census.Graphs Game.Sum 4) in
  Alcotest.check_raises "mixed kinds rejected"
    (Invalid_argument "Census.merge_result: mixed census kinds") (fun () ->
      ignore (Census.merge_result t g))

(* Folding the pieces of a split via [merge_result] must reproduce the
   full census byte-for-byte (rendered wire JSON) under ANY order of
   merging adjacent pieces — the property the distributed dispatcher
   leans on when shards complete out of order. The per-kind environment
   (full render + per-piece results) is computed lazily once; QCheck
   only drives the merge order. *)
let merge_perm_env kind version n parts =
  lazy
    (let full = Census.full_shard kind version n in
     let expected = render_result (Census.run_shard full) in
     let results = List.map Census.run_shard (Census.split full ~parts) in
     (expected, results))

let merge_in_seeded_order env seed =
  let expected, results = Lazy.force env in
  let rng = Prng.create seed in
  let rec merge_at i = function
    | a :: b :: tl when i = 0 -> Census.merge_result a b :: tl
    | a :: tl -> a :: merge_at (i - 1) tl
    | [] -> assert false
  in
  let rec reduce = function
    | [] -> assert false
    | [ r ] -> r
    | rs -> reduce (merge_at (Prng.int rng (List.length rs - 1)) rs)
  in
  String.equal expected (render_result (reduce results))

let tree_perm_env = merge_perm_env Census.Trees Game.Sum 6 7

let graph_perm_env = merge_perm_env Census.Graphs Game.Max 4 6

let orderly_perm_env = merge_perm_env Census.Orderly Game.Sum 6 7

let suite =
  [
    case "tree census sum (n <= 7)" test_tree_census_sum_small;
    case "tree census max (n <= 7)" test_tree_census_max_small;
    case "double star count n=6" test_double_star_count_n6;
    case "differential sum census vs brute force (n <= 6)"
      test_differential_sum_census_small;
    slow_case "differential sum census vs brute force (n = 7)"
      test_differential_sum_census_n7;
    case "graph census sum n=4" test_graph_census_sum;
    case "graph census max n=5" test_graph_census_max;
    slow_case "graph census max n=6 diameter 3" test_graph_census_max_diameter3_at_6;
    case "histogram consistency" test_histogram_consistent;
    case "split: cover, adjacency, determinism" test_split_properties;
    case "run_shard: sub-ranges and projections" test_run_shard_sub_ranges;
    case "graph_kind: orderly for sum and max" test_graph_kind;
    case "orderly census identical to rank-range (n <= 5)" test_orderly_identity_small;
    slow_case "orderly census identical to rank-range (n = 6)" test_orderly_identity_n6;
    case "merge_result rejects mixed kinds" test_merge_result_rejects_mixed;
    qcheck ~count:40 "tree census: any adjacent-merge order is identical"
      QCheck2.Gen.(int_range 0 1_000_000)
      (merge_in_seeded_order tree_perm_env);
    qcheck ~count:40 "graph census: any adjacent-merge order is identical"
      QCheck2.Gen.(int_range 0 1_000_000)
      (merge_in_seeded_order graph_perm_env);
    qcheck ~count:40 "orderly census: any adjacent-merge order is identical"
      QCheck2.Gen.(int_range 0 1_000_000)
      (merge_in_seeded_order orderly_perm_env);
  ]
