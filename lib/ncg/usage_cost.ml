let infinite = max_int / 4

let is_infinite c = c >= infinite

let vertex_cost ws game g v =
  let r = Bfs.reach ws g v in
  if r.Bfs.reached < Graph.n g then infinite
  else match game with Game.Max -> r.Bfs.ecc | Game.Sum | Game.Alpha _ -> r.Bfs.sum

let social_cost game g =
  let n = Graph.n g in
  let ws = Bfs.create_workspace n in
  (* sum adds the per-agent costs, max takes the largest *)
  let combine = match game with Game.Max -> max | Game.Sum | Game.Alpha _ -> ( + ) in
  let rec loop v acc =
    if v >= n then acc
    else begin
      let c = vertex_cost ws game g v in
      if is_infinite c then infinite else loop (v + 1) (combine acc c)
    end
  in
  loop 0 0

let social_cost_lower_bound game ~n ~m =
  if n <= 1 then 0
  else
    match game with
    | Game.Sum | Game.Alpha _ ->
      let ordered_pairs = n * (n - 1) in
      (2 * m) + (2 * (ordered_pairs - (2 * m)))
    | Game.Max -> if m >= n * (n - 1) / 2 then 1 else 2
