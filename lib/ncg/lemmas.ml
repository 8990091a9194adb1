type violation = {
  description : string;
  vertices : int list;
}

let check_lemma6 g =
  let n = Graph.n g in
  let ws = Bfs.create_workspace n in
  let bad = ref None in
  let v = ref 0 in
  while !bad = None && !v < n do
    (match Metrics.local_diameter g !v with
    | Some 2 ->
      Swap.iter_moves g !v (fun mv ->
          if !bad = None then begin
            let d = Swap.delta ws Game.Sum g mv in
            if d < 0 then
              bad :=
                Some
                  {
                    description =
                      Printf.sprintf "local-diameter-2 vertex improves via %s (delta %d)"
                        (Swap.move_to_string mv) d;
                    vertices = [ !v ];
                  }
          end)
    | Some _ | None -> ());
    incr v
  done;
  !bad

let check_lemma7 g =
  let n = Graph.n g in
  let ws = Bfs.create_workspace n in
  let bad = ref None in
  let v = ref 0 in
  while !bad = None && !v < n do
    (match Metrics.local_diameter g !v with
    | Some 3 ->
      Bfs.run ws g !v;
      let dist_v = Array.init n (fun x -> Bfs.dist ws x) in
      let before = Array.fold_left ( + ) 0 dist_v in
      List.iter
        (fun w ->
          if !bad = None && w <> !v && not (Graph.mem_edge g !v w) then begin
            let r = dist_v.(w) in
            let budget =
              (r - 1)
              + Graph.fold_neighbors
                  (fun acc u -> if dist_v.(u) = 3 then acc + 1 else acc)
                  0 g w
            in
            Graph.add_edge g !v w;
            Bfs.run ws g !v;
            let after = ref 0 in
            for x = 0 to n - 1 do
              after := !after + Bfs.dist ws x
            done;
            Graph.remove_edge g !v w;
            let gain = before - !after in
            if gain > budget then
              bad :=
                Some
                  {
                    description =
                      Printf.sprintf
                        "adding %d-%d (distance %d) gains %d > budget %d" !v w r gain
                        budget;
                    vertices = [ !v; w ];
                  }
          end)
        (List.init n (fun i -> i))
    | Some _ | None -> ());
    incr v
  done;
  !bad

let check_lemma8 g =
  match Metrics.girth g with
  | Some girth when girth < 4 -> None (* hypothesis not met: vacuous *)
  | Some _ | None ->
    let n = Graph.n g in
    let ws = Bfs.create_workspace n in
    let bad = ref None in
    let v = ref 0 in
    while !bad = None && !v < n do
      Swap.iter_moves g !v (fun mv ->
          match mv with
          | Swap.Swap { actor; drop; add } when !bad = None ->
            let before = Bfs.distances g actor in
            Swap.apply g mv;
            Bfs.run ws g actor;
            let after = Bfs.dist ws drop in
            Swap.undo g mv;
            let increase =
              if after = Bfs.unreachable then max_int else after - before.(drop)
            in
            let required = if Graph.mem_edge g drop add then 1 else 2 in
            if increase < required then
              bad :=
                Some
                  {
                    description =
                      Printf.sprintf
                        "swap %s increases d(%d,%d) by %d < required %d"
                        (Swap.move_to_string mv) actor drop increase required;
                    vertices = [ actor; drop; add ];
                  }
          | Swap.Swap _ | Swap.Delete _ -> ());
      incr v
    done;
    !bad

let theorem5_case_analysis () =
  let g = Constructions.theorem5_graph in
  let ws = Bfs.create_workspace (Graph.n g) in
  let improves mv = Swap.delta ws Game.Sum g mv < 0 in
  let vx = Constructions.theorem5_vertex in
  let all_ok actor candidates =
    List.for_all (fun (drop, add) ->
        not (improves (Swap.Swap { actor; drop; add })))
      candidates
  in
  let cluster_vertices =
    List.concat_map (fun i -> [ vx (Constructions.Cluster (i, 1)); vx (Constructions.Cluster (i, 2)) ])
      [ 1; 2; 3 ]
  in
  let hub = vx Constructions.Hub in
  let cases = ref [] in
  let add_case name ok = cases := (name, ok) :: !cases in
  (* Case 1 (Lemma 6): cluster vertices have local diameter 2, no swap
     around them helps *)
  let cluster_ok =
    List.for_all
      (fun c ->
        let ok = ref true in
        Swap.iter_moves g c (fun mv -> if improves mv then ok := false);
        !ok)
      cluster_vertices
  in
  add_case "cluster vertices c_ik cannot improve (Lemma 6)" cluster_ok;
  (* Case 2: the hub a *)
  let hub_ok =
    let ok = ref true in
    Swap.iter_moves g hub (fun mv -> if improves mv then ok := false);
    !ok
  in
  add_case "hub a cannot improve" hub_ok;
  (* Case 3: branches b_i *)
  let branch_ok =
    List.for_all
      (fun i ->
        let b = vx (Constructions.Branch i) in
        let ok = ref true in
        Swap.iter_moves g b (fun mv -> if improves mv then ok := false);
        !ok)
      [ 1; 2; 3 ]
  in
  add_case "branches b_i cannot improve" branch_ok;
  (* Case 4a: collectors d_i, swaps NOT targeting the matched partner of
     the dropped vertex *)
  let partner_of i k j =
    (* matched partner of c_{i,k} inside cluster j (both layouts wired in
       Constructions: parallel C1-C2, C2-C3; crossed C1-C3) *)
    let crossed = (min i j, max i j) = (1, 3) in
    vx (Constructions.Cluster (j, if crossed then 3 - k else k))
  in
  let collector_cases ~to_partner =
    List.for_all
      (fun i ->
        let d = vx (Constructions.Collector i) in
        let drops = [ (i, 1); (i, 2) ] in
        List.for_all
          (fun (ii, k) ->
            let drop = vx (Constructions.Cluster (ii, k)) in
            let others = List.filter (fun j -> j <> i) [ 1; 2; 3 ] in
            List.for_all
              (fun j ->
                let partner = partner_of ii k j in
                let targets =
                  List.filter
                    (fun t ->
                      t <> d && t <> drop
                      && (not (Graph.mem_edge g d t))
                      && (t = partner) = to_partner)
                    [ vx (Constructions.Cluster (j, 1)); vx (Constructions.Cluster (j, 2)) ]
                in
                all_ok d (List.map (fun t -> (drop, t)) targets))
              others)
          drops)
      [ 1; 2; 3 ]
  in
  add_case "collectors d_i: swaps to non-partner cluster vertices"
    (collector_cases ~to_partner:false);
  add_case "collectors d_i: swaps to the MATCHED PARTNER of the dropped vertex"
    (collector_cases ~to_partner:true);
  List.rev !cases
