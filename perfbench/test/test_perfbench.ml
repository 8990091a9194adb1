(* Tests of the benchmark itself: the percentile rule, the metric-name
   grammar, BENCHMARK.json against the catalogue, and the correctness
   gate feeding error_rate. *)

open Pbcore

let floats = Alcotest.(float 0.)

let tail n = tail_percentile (List.init n (fun i -> float_of_int (i + 1)))

let test_percentile_rule () =
  Alcotest.(check (option (pair floats floats))) "19 samples: none" None (tail 19);
  Alcotest.(check (option (pair floats floats))) "20 samples: median" (Some (50., 10.)) (tail 20);
  Alcotest.(check (option (pair floats floats))) "100 samples: p90" (Some (90., 90.)) (tail 100);
  Alcotest.(check (option (pair floats floats))) "999 samples: p95" (Some (95., 950.)) (tail 999);
  Alcotest.(check (option (pair floats floats))) "1000 samples: p99" (Some (99., 990.)) (tail 1000);
  Alcotest.(check (option (pair floats floats)))
    "10000 samples: p99.9" (Some (99.9, 9990.)) (tail 10000);
  let a = List.init 12 (fun i -> float_of_int (12 - i)) in
  Alcotest.(check (pair floats floats)) "12 samples fall back to the median" (50., 6.5)
    (tail_or_median a);
  let b = List.init 10000 (fun i -> float_of_int (i + 1)) in
  Alcotest.(check (pair floats floats)) "p99.9 supported still reports p99" (99., 9900.)
    (tail_or_median b)

let test_name_grammar () =
  List.iter
    (fun s -> Alcotest.(check bool) s true (valid_name s))
    [ "wall_s"; "serve.lat_p50_ms.fresh-small"; "1x"; String.make 64 'a' ];
  List.iter
    (fun s -> Alcotest.(check bool) (Printf.sprintf "%S" s) false (valid_name s))
    [ ""; "_x"; ".x"; "-x"; "a b"; "a/b"; "p99%"; String.make 65 'a' ];
  let names = List.map (fun s -> s.name) (end_to_end @ per_layer) @ List.map fst workloads in
  List.iter (fun n -> Alcotest.(check bool) n true (valid_name n)) names;
  Alcotest.(check int) "names are unique" (List.length names)
    (List.length (List.sort_uniq compare names));
  List.iter
    (fun s -> Alcotest.(check bool) s.unit true (valid_unit s.unit))
    (end_to_end @ per_layer)

let load_manifest () =
  match Jsonx.parse (Option.get (read_file "../../BENCHMARK.json")) with
  | Ok j -> j
  | Error e -> Alcotest.fail e

let test_manifest_round_trip () =
  let j = load_manifest () in
  Alcotest.(check bool) "parse . render . parse = parse" true (Jsonx.parse (Jsonx.to_string j) = Ok j);
  Alcotest.(check bool) "BENCHMARK.json equals the catalogue" true (j = manifest_to_json manifest)

(* the contract BENCHMARK.json is written to, checked on the catalogue
   it equals *)
let test_manifest_contract () =
  let m = manifest in
  Alcotest.(check bool) "run_seconds in 1..60" true (m.run_seconds >= 1 && m.run_seconds <= 60);
  let n = List.length m.workloads in
  Alcotest.(check bool) "2 to 8 workloads" true (n >= 2 && n <= 8);
  List.iter
    (fun (_, why) ->
      Alcotest.(check bool) "why fits one line of 200" true
        (String.length why <= 200 && not (String.contains why '\n')))
    m.workloads;
  List.iter
    (fun s ->
      match s.bound with
      | Some b -> Alcotest.(check bool) (s.name ^ " bound") true (b > 0. && b <= 0.25)
      | None -> Alcotest.fail (s.name ^ " has no bound"))
    m.m_end_to_end;
  List.iter
    (fun s -> Alcotest.(check bool) (s.name ^ " has no bound") true (s.bound = None))
    m.m_per_layer;
  let setup = List.find (fun s -> s.name = "setup_s") m.m_end_to_end in
  Alcotest.(check bool) "setup_s is seconds, lower is better" true
    (setup.unit = "s" && setup.better = Lower);
  let largest = List.fold_left (fun acc s -> max acc (Option.get s.bound)) 0. m.m_end_to_end in
  Alcotest.(check bool) "setup_s has the largest bound" true (setup.bound = Some largest)

(* A census whose representatives do not match the pinned digest fails
   every attempt: error_rate 1, and the result line says so. *)
let test_wrong_digest () =
  let e = { Census_wl.census_sum with Census_wl.digest = String.make 32 '0' } in
  let t, _, _ = Census_wl.run e ~seconds:0. in
  Alcotest.(check bool) "attempted" true (t.attempted >= 1);
  Alcotest.(check floats) "error_rate" 1. (error_rate t);
  let line = result_line ~correct:(t.failed = 0) ~attempted:t.attempted ~failed:t.failed [] in
  match Jsonx.parse line with
  | Ok j -> Alcotest.(check bool) "correct is false" true (Jsonx.member "correct" j = Some (Jsonx.Bool false))
  | Error e -> Alcotest.fail e

let () =
  Alcotest.run "perfbench"
    [
      ("stats", [ Alcotest.test_case "percentile rule" `Quick test_percentile_rule ]);
      ("names", [ Alcotest.test_case "metric-name grammar" `Quick test_name_grammar ]);
      ( "manifest",
        [
          Alcotest.test_case "BENCHMARK.json round-trips" `Quick test_manifest_round_trip;
          Alcotest.test_case "BENCHMARK.json keeps the contract" `Quick test_manifest_contract;
        ] );
      ("gate", [ Alcotest.test_case "wrong digest drives error_rate to 1" `Slow test_wrong_digest ]);
    ]
