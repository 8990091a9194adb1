open Test_helpers

let check_str = Alcotest.(check string)

let check_float = Alcotest.(check (float 1e-9))

(* --- the registry grammar ------------------------------------------------ *)

let game = Alcotest.testable Game.pp Game.equal

let check_game msg expected s =
  match Game.of_string s with
  | Ok g -> Alcotest.check game msg expected g
  | Error e -> Alcotest.failf "%s: %S rejected: %s" msg s e

let check_rejected msg s =
  match Game.of_string s with
  | Ok g -> Alcotest.failf "%s: %S parsed as %s" msg s (Game.to_string g)
  | Error _ -> ()

let test_of_string () =
  check_game "sum" Game.Sum "sum";
  check_game "max" Game.Max "max";
  check_game "alpha" (Game.Alpha 1.5) "alpha:1.5";
  check_game "alpha int spelling" (Game.Alpha 2.0) "alpha:2";
  check_game "alpha zero" (Game.Alpha 0.0) "alpha:0";
  check_game "alpha exponent" (Game.Alpha 1e6) "alpha:1e6";
  check_rejected "unknown name" "median";
  check_rejected "empty" "";
  check_rejected "case sensitive" "SUM";
  check_rejected "bare alpha" "alpha";
  check_rejected "empty alpha payload" "alpha:";
  check_rejected "negative alpha" "alpha:-1";
  check_rejected "nan alpha" "alpha:nan";
  check_rejected "infinite alpha" "alpha:inf";
  check_rejected "junk alpha" "alpha:2x"

let test_to_string () =
  (* the canonical spellings the atlas keys, journals and wire replies use:
     sum/max must stay byte-identical to the pre-registry names *)
  check_str "sum" "sum" (Game.to_string Game.Sum);
  check_str "max" "max" (Game.to_string Game.Max);
  check_str "alpha" "alpha:1.5" (Game.to_string (Game.Alpha 1.5));
  check_str "alpha integral" "alpha:2" (Game.to_string (Game.Alpha 2.0))

let gen_game =
  QCheck2.Gen.(
    oneof
      [
        return Game.Sum;
        return Game.Max;
        (* spans integral, tiny and huge magnitudes; only finite
           non-negative alphas are representable in the grammar *)
        map
          (fun x ->
            let a = Float.abs x in
            Game.Alpha (if Float.is_finite a then a else 1.5))
          float;
      ])

let test_roundtrip =
  qcheck ~count:500 "of_string (to_string g) = Ok g" gen_game (fun g ->
      Game.of_string (Game.to_string g) = Ok g)

let test_is_basic () =
  check_true "sum is_basic" (Game.is_basic Game.Sum);
  check_true "max is_basic" (Game.is_basic Game.Max);
  check_false "alpha is_basic" (Game.is_basic (Game.Alpha 0.5));
  check_false "equal across variants" (Game.equal Game.Sum (Game.Alpha 0.0))

let test_social_cost () =
  let star = Generators.star 5 in
  (* the usage kernel takes every game; alpha uses the distance sum *)
  check_int "sum star" 32 (Usage_cost.social_cost Game.Sum star);
  check_int "max star" 2 (Usage_cost.social_cost Game.Max star);
  check_int "alpha star = sum star" 32 (Usage_cost.social_cost (Game.Alpha 3.0) star);
  (* alpha: edge budget plus the distance sum *)
  check_float "alpha social cost"
    ((3.0 *. float_of_int (Graph.m star)) +. 32.0)
    (Alpha_game.social_cost (Alpha_game.create ~alpha:3.0 star));
  check_true "disconnected is infinite"
    (Usage_cost.is_infinite (Usage_cost.social_cost (Game.Alpha 1.0) (Graph.create 3)));
  check_true "disconnected alpha is infinity"
    (Alpha_game.social_cost (Alpha_game.create ~alpha:1.0 (Graph.create 3)) = infinity)

(* --- differential: the alpha game restricted to swaps is the sum game --- *)

(* No improving [Swap_owned] anywhere. A swap keeps the owned-edge count,
   so its delta is exactly the actor's distance-sum change — the basic sum
   game's move — but only over the edges the actor owns. *)
let swap_restricted_stable t =
  let g = Alpha_game.graph t in
  let n = Graph.n g in
  let stable = ref true in
  for v = 0 to n - 1 do
    Array.iter
      (fun w ->
        if !stable && Alpha_game.owner t v w = v then
          for add = 0 to n - 1 do
            if
              !stable && add <> v && add <> w
              && not (Graph.mem_edge g v add)
              && Alpha_game.delta t (Alpha_game.Swap_owned { actor = v; drop = w; add })
                 < -1e-9
            then stable := false
          done)
      (Graph.neighbors g v)
  done;
  !stable

(* Ownership decides who may swap an edge; the two extreme orientations
   together let every endpoint try every incident edge, which is exactly
   the basic sum game's move set. Exhaustive over every connected labeled
   graph in range. *)
let differential_in n =
  Enumerate.connected_graphs n (fun g ->
      let lo = Alpha_game.create ~alpha:2.5 g in
      let hi = Alpha_game.create ~alpha:2.5 ~owner:(fun _ v -> v) g in
      let alpha_stable = swap_restricted_stable lo && swap_restricted_stable hi in
      if alpha_stable <> Equilibrium.is_equilibrium Game.Sum g then
        Alcotest.failf "swap-restricted alpha disagrees with sum on %s"
          (Graph6.encode g))

let test_differential_small () = List.iter differential_in [ 2; 3; 4; 5 ]

let test_differential_n6 () = differential_in 6

(* --- the generic checker agrees with the alpha engine -------------------- *)

let test_check_alpha_agrees =
  qcheck ~count:60 "Equilibrium.check (Alpha a) matches best_response_exists"
    QCheck2.Gen.(pair (gen_connected ~min_n:2 ~max_n:8) (int_range 0 6))
    (fun (g, k) ->
      let a = 0.5 *. float_of_int k in
      let t = Alpha_game.create ~alpha:a g in
      match Equilibrium.check (Game.Alpha a) g with
      | Equilibrium.Equilibrium -> not (Alpha_game.best_response_exists t)
      | Equilibrium.Alpha_violation (mv, d) ->
        (* the reported witness is real: applicable and improving *)
        Alpha_game.best_response_exists t
        && Alpha_game.is_applicable t mv
        && d < 0.0
        && Float.abs (Alpha_game.delta t mv -. d) < 1e-9
      | Equilibrium.Disconnected | Equilibrium.Violation _ -> false)

let suite =
  [
    case "of_string grammar" test_of_string;
    case "to_string canonical spellings" test_to_string;
    test_roundtrip;
    case "is_basic" test_is_basic;
    case "social cost across games" test_social_cost;
    case "swap-restricted alpha = sum game (n <= 5)" test_differential_small;
    slow_case "swap-restricted alpha = sum game (n = 6)" test_differential_n6;
    test_check_alpha_agrees;
  ]
