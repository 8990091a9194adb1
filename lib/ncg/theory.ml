let lg n =
  if n < 1 then invalid_arg "Theory.lg";
  log (float_of_int n) /. log 2.0

let theorem9_bound n = Float.pow 2.0 (3.0 *. sqrt (lg n))

let theorem9_recurrence_bound n =
  if n < 2 then 0
  else begin
    let lgn = lg n in
    let k0 = Float.pow 2.0 (sqrt lgn) in
    let k = ref k0 and b = ref k0 in
    let half = float_of_int n /. 2.0 in
    while !b <= half do
      let growth = Float.max 2.0 (!k /. (20.0 *. lgn)) in
      b := !b *. growth;
      k := !k *. 4.0
    done;
    (* once B_k > n/2, any two radius-k balls intersect: diameter <= 2k *)
    int_of_float (Float.ceil (2.0 *. !k))
  end

type lemma10_result =
  | Small_diameter
  | Edge of { x : int; y : int; removal_cost : int }

let removal_cost_from g x y =
  (* increase in x's distance sum when edge xy is removed; infinite if the
     removal disconnects *)
  let ws = Bfs.create_workspace (Graph.n g) in
  let before = Usage_cost.vertex_cost ws Game.Sum g x in
  Graph.remove_edge g x y;
  let after = Usage_cost.vertex_cost ws Game.Sum g x in
  Graph.add_edge g x y;
  if Usage_cost.is_infinite after then Usage_cost.infinite else after - before

let lemma10_check g u =
  let n = Graph.n g in
  if n < 2 then Some Small_diameter
  else begin
    let lgn = lg n in
    match Metrics.diameter g with
    | None -> None
    | Some d when float_of_int d <= 2.0 *. lgn -> Some Small_diameter
    | Some _ ->
      let ws = Bfs.create_workspace n in
      Bfs.run ws g u;
      let budget = 2.0 *. float_of_int n *. (1.0 +. lgn) in
      let found = ref None in
      (* snapshot: removal_cost_from mutates the graph *)
      List.iter
        (fun (a, b) ->
          if !found = None then begin
            (* the lemma's edge is examined from whichever endpoint is
               within lg n of u *)
            List.iter
              (fun (x, y) ->
                if
                  !found = None
                  && float_of_int (Bfs.dist ws x) <= lgn
                then begin
                  let cost = removal_cost_from g x y in
                  if float_of_int cost <= budget then
                    found := Some (Edge { x; y; removal_cost = cost })
                end)
              [ (a, b); (b, a) ]
          end)
        (Graph.edges g);
      !found
  end

let corollary11_max_gain g =
  let n = Graph.n g in
  let ws = Bfs.create_workspace n in
  let best = ref 0 in
  List.iter
    (fun (u, v) ->
      let check x =
        let before = Usage_cost.vertex_cost ws Game.Sum g x in
        Graph.add_edge g u v;
        let after = Usage_cost.vertex_cost ws Game.Sum g x in
        Graph.remove_edge g u v;
        let gain = before - after in
        if gain > !best then best := gain
      in
      check u;
      check v)
    (Graph.complement_edges g);
  !best

let corollary11_budget n = 5.0 *. float_of_int n *. lg n

let max_lower_bound_diameter ~dim n =
  if dim < 1 || n < 2 then invalid_arg "Theory.max_lower_bound_diameter";
  Float.pow (float_of_int n /. 2.0) (1.0 /. float_of_int dim)

let theorem15_bound ~n ~epsilon =
  if epsilon <= 0.0 || epsilon >= 0.25 then
    invalid_arg "Theory.theorem15_bound: need 0 < epsilon < 1/4";
  let r = 1.0 +. (2.0 *. lg n /. (log ((1.0 -. epsilon) /. epsilon) /. log 2.0)) in
  (2.0 *. r) +. 2.0

let theorem13_diameter_bound ~n ~epsilon ~d =
  if n < 2 || d < 1 then invalid_arg "Theory.theorem13_diameter_bound";
  if epsilon <= 0.0 || epsilon > 1.0 then
    invalid_arg "Theory.theorem13_diameter_bound: epsilon";
  let beta = epsilon /. 6.0 in
  let p = 8.0 /. beta in
  let x = (2.0 *. p *. lg n) +. 1.0 in
  Float.ceil (float_of_int d /. x)
