let require_tree g =
  if not (Components.is_tree g) then invalid_arg "Tree_eq: not a tree"

let is_star g =
  Components.is_tree g
  &&
  let n = Graph.n g in
  n <= 2 || Graph.max_degree g = n - 1

let double_star_arms g =
  if not (Components.is_tree g) then None
  else begin
    let n = Graph.n g in
    (* roots are the two non-leaf vertices; all others must be leaves *)
    let internal =
      List.filter (fun v -> Graph.degree g v >= 2) (List.init n (fun i -> i))
    in
    match internal with
    | [ r0; r1 ] when Graph.mem_edge g r0 r1 ->
      Some (Graph.degree g r0 - 1, Graph.degree g r1 - 1)
    | _ -> None
  end

let is_double_star g = double_star_arms g <> None

(* Diametral path via double BFS: the farthest vertex from any start is an
   endpoint of some diametral path. *)
let diametral_path g =
  let n = Graph.n g in
  let ws = Bfs.create_workspace n in
  Bfs.run ws g 0;
  let far_from src =
    Bfs.run ws g src;
    let best = ref src in
    for v = 0 to n - 1 do
      if Bfs.dist ws v > Bfs.dist ws !best then best := v
    done;
    !best
  in
  let a = far_from 0 in
  let b = far_from a in
  (* reconstruct the a..b path by walking strictly-decreasing distances
     from b back to a (dist array currently holds distances from a) *)
  let rec walk v acc =
    if v = a then v :: acc
    else begin
      let next = ref (-1) in
      Graph.iter_neighbors
        (fun w -> if Bfs.dist ws w = Bfs.dist ws v - 1 then next := w)
        g v;
      walk !next (v :: acc)
    end
  in
  walk b []

let verified_witness ws game g mv =
  let d = Swap.delta ws game g mv in
  assert (d < 0);
  Some (mv, d)

let theorem1_witness g =
  require_tree g;
  let path = diametral_path g in
  if List.length path < 4 then None
  else begin
    (* path v -> a -> b -> ... : Theorem 1 proves one of the two swaps
       (v re-hangs from a to b) or (the far end symmetric) improves; with
       subtree sizes s_b + s_w > s_a the first one does.  We simply try
       the first and fall back to the symmetric one. *)
    let ws = Bfs.create_workspace (Graph.n g) in
    match path with
    | v :: a :: b :: w :: _ ->
      (* v, a, b, w is an induced distance-3 path; the proof shows that
         swap (1) [v re-hangs onto b] or swap (2) [w re-hangs onto a]
         strictly improves *)
      let mv1 = Swap.Swap { actor = v; drop = a; add = b } in
      let d1 = Swap.delta ws Game.Sum g mv1 in
      if d1 < 0 then Some (mv1, d1)
      else
        verified_witness ws Game.Sum g
          (Swap.Swap { actor = w; drop = b; add = a })
    | _ -> assert false
  end

let theorem4_witness g =
  require_tree g;
  let path = diametral_path g in
  let diam = List.length path - 1 in
  if diam < 4 then None
  else begin
    (* Lemma 2 construction: the diametral endpoint w re-hangs its unique
       edge onto a center vertex of the path, dropping its eccentricity to
       ecc(center) + 1 <= diam - 1. *)
    let ws = Bfs.create_workspace (Graph.n g) in
    let arr = Array.of_list path in
    let center = arr.(diam / 2) in
    let w = arr.(diam) in
    let parent = arr.(diam - 1) in
    verified_witness ws Game.Max g
      (Swap.Swap { actor = w; drop = parent; add = center })
  end

let sum_eq_tree g =
  require_tree g;
  if Graph.n g <= 2 then true
  else if is_star g then true
  else begin
    (* Theorem 1: any non-star tree admits the witness swap *)
    match theorem1_witness g with
    | Some _ -> false
    | None ->
      (* diameter <= 2 but not a star would be a contradiction for trees *)
      assert false
  end

let max_eq_tree g =
  require_tree g;
  let n = Graph.n g in
  if n <= 3 then true
  else if is_star g then true
  else begin
    match double_star_arms g with
    | Some (a, b) -> a >= 2 && b >= 2
    | None -> false
  end
