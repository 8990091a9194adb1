open Test_helpers

let p4 () = Generators.path 4

let test_applicable () =
  let g = p4 () in
  check_true "valid swap"
    (Swap.is_applicable g (Swap.Swap { actor = 0; drop = 1; add = 3 }));
  check_false "add already neighbor"
    (Swap.is_applicable g (Swap.Swap { actor = 1; drop = 0; add = 2 }));
  check_false "drop not neighbor"
    (Swap.is_applicable g (Swap.Swap { actor = 0; drop = 2; add = 3 }));
  check_false "self add"
    (Swap.is_applicable g (Swap.Swap { actor = 0; drop = 1; add = 0 }));
  check_true "delete" (Swap.is_applicable g (Swap.Delete { actor = 0; drop = 1 }));
  check_false "delete absent" (Swap.is_applicable g (Swap.Delete { actor = 0; drop = 3 }))

let test_apply_undo () =
  let g = p4 () in
  let original = Graph.copy g in
  let mv = Swap.Swap { actor = 0; drop = 1; add = 3 } in
  Swap.apply g mv;
  check_true "edge moved" (Graph.mem_edge g 0 3 && not (Graph.mem_edge g 0 1));
  check_int "m preserved" 3 (Graph.m g);
  Swap.undo g mv;
  check_true "restored" (Graph.equal g original)

let test_apply_delete_undo () =
  let g = p4 () in
  let original = Graph.copy g in
  let mv = Swap.Delete { actor = 1; drop = 2 } in
  Swap.apply g mv;
  check_int "m reduced" 2 (Graph.m g);
  Swap.undo g mv;
  check_true "restored" (Graph.equal g original)

let test_apply_rejects () =
  let g = p4 () in
  Alcotest.check_raises "inapplicable"
    (Invalid_argument "Swap.apply: move not applicable: 0: 0-2 -> 0-3") (fun () ->
      Swap.apply g (Swap.Swap { actor = 0; drop = 2; add = 3 }))

let test_delta_improving () =
  (* P4: endpoint 0 re-hanging from 1 to 2 improves its sum: distances
     (1,2,3)=6 -> 0~2: (2,1,2)=5 *)
  let g = p4 () in
  let w = Bfs.create_workspace 4 in
  let d = Swap.delta w Game.Sum g (Swap.Swap { actor = 0; drop = 1; add = 2 }) in
  check_int "delta" (-1) d;
  check_true "graph unchanged" (Graph.equal g (p4 ()))

let test_delta_max () =
  let g = p4 () in
  let w = Bfs.create_workspace 4 in
  (* 0 re-hangs to center 2: ecc 3 -> 2 *)
  check_int "max delta" (-1)
    (Swap.delta w Game.Max g (Swap.Swap { actor = 0; drop = 1; add = 2 }))

let test_delta_disconnecting () =
  let g = p4 () in
  let w = Bfs.create_workspace 4 in
  (* deleting the bridge disconnects: infinite after-cost *)
  let d = Swap.delta w Game.Sum g (Swap.Delete { actor = 1; drop = 2 }) in
  check_true "hugely positive" (d > 1_000_000)

let test_iter_moves_complete_enumeration () =
  let g = p4 () in
  let moves = ref [] in
  Swap.iter_moves g 1 (fun mv -> moves := mv :: !moves);
  (* vertex 1 has neighbors {0, 2}, non-neighbors {3}: 2 swaps *)
  check_int "count" 2 (List.length !moves);
  check_int "matches move_count" 2 (Swap.move_count g 1);
  List.iter (fun mv -> check_true "applicable" (Swap.is_applicable g mv)) !moves

let test_iter_moves_with_deletions () =
  let g = p4 () in
  let dels = ref 0 and swaps = ref 0 in
  Swap.iter_moves ~include_deletions:true g 1 (fun mv ->
      match mv with Swap.Delete _ -> incr dels | Swap.Swap _ -> incr swaps);
  check_int "deletions" 2 !dels;
  check_int "swaps" 2 !swaps

let test_iter_moves_mutation_safe () =
  (* the callback applies and undoes each move — enumeration must still
     cover every (drop, add) pair exactly once (regression for the live-row
     iteration bug) *)
  let g = Generators.cycle 5 in
  let w = Bfs.create_workspace 5 in
  let seen = Hashtbl.create 16 in
  Swap.iter_moves g 0 (fun mv ->
      ignore (Swap.delta w Game.Sum g mv);
      (match mv with
      | Swap.Swap { drop; add; _ } -> Hashtbl.replace seen (drop, add) ()
      | Swap.Delete _ -> ());
      ());
  (* neighbors {1,4} x non-neighbors {2,3} = 4 distinct pairs *)
  check_int "all pairs enumerated" 4 (Hashtbl.length seen)

let test_best_move () =
  let g = Generators.path 5 in
  let w = Bfs.create_workspace 5 in
  (match Swap.best_move w Game.Sum g 0 with
  | Some (Swap.Swap { actor = 0; drop = 1; add }, d ) ->
    (* best re-hang for the endpoint is the center *)
    check_int "best add is center" 2 add;
    check_int "best delta" (-2) d
  | _ -> Alcotest.fail "expected improving move");
  (* center of a star has no moves at all *)
  let s = Generators.star 5 in
  check_true "no improving move for star center"
    (Swap.best_move w Game.Sum s 0 = None)

let test_first_improving () =
  let g = Generators.path 5 in
  let w = Bfs.create_workspace 5 in
  match Swap.first_improving_move w Game.Sum g 0 with
  | Some (mv, d) ->
    check_true "applicable" (Swap.is_applicable g mv);
    check_true "improving" (d < 0)
  | None -> Alcotest.fail "path endpoint has improving moves"

let test_random_improving_uniformish () =
  let g = Generators.path 7 in
  let w = Bfs.create_workspace 7 in
  let rng = Prng.create 77 in
  let seen = Hashtbl.create 8 in
  for _ = 1 to 200 do
    match Swap.random_improving_move rng w Game.Sum g 0 with
    | Some (Swap.Swap { add; _ }, _) -> Hashtbl.replace seen add ()
    | Some (Swap.Delete _, _) | None -> Alcotest.fail "expected a swap"
  done;
  (* endpoint 0 improves by re-hanging to any of 2..5 (not 6, which keeps
     distance) — sampling should hit several of them *)
  check_true "multiple targets sampled" (Hashtbl.length seen >= 2)

let test_delta_never_lies =
  qcheck ~count:60 "delta equals recomputed difference" (gen_connected ~min_n:3 ~max_n:12)
    (fun g ->
      let w = Bfs.create_workspace (Graph.n g) in
      let ok = ref true in
      Swap.iter_moves g 0 (fun mv ->
          let d = Swap.delta w Game.Sum g mv in
          let before = Usage_cost.vertex_cost w Game.Sum g 0 in
          Swap.apply g mv;
          let after = Usage_cost.vertex_cost w Game.Sum g 0 in
          Swap.undo g mv;
          if after - before <> d then ok := false);
      !ok)

let test_apply_undo_identity =
  qcheck ~count:60 "apply; undo = identity on all moves of all agents"
    (gen_connected ~min_n:2 ~max_n:10) (fun g ->
      let original = Graph.copy g in
      let ok = ref true in
      for v = 0 to Graph.n g - 1 do
        Swap.iter_moves ~include_deletions:true g v (fun mv ->
            Swap.apply g mv;
            Swap.undo g mv;
            if not (Graph.equal g original) then ok := false)
      done;
      !ok)

let suite =
  [
    case "applicability" test_applicable;
    case "apply/undo swap" test_apply_undo;
    case "apply/undo delete" test_apply_delete_undo;
    case "apply rejects" test_apply_rejects;
    case "delta improving" test_delta_improving;
    case "delta max version" test_delta_max;
    case "delta of disconnecting move" test_delta_disconnecting;
    case "iter_moves enumeration" test_iter_moves_complete_enumeration;
    case "iter_moves with deletions" test_iter_moves_with_deletions;
    case "iter_moves safe under mutation (regression)" test_iter_moves_mutation_safe;
    case "best_move" test_best_move;
    case "first improving" test_first_improving;
    case "random improving samples targets" test_random_improving_uniformish;
    test_delta_never_lies;
    test_apply_undo_identity;
  ]
