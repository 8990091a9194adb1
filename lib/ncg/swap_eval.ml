let unreachable = Bfs.unreachable

(* m_moves / m_fallbacks is the engine's headline ratio: the fraction of
   candidate moves that still needed a per-move BFS. m_certified counts
   bound-certified skips, m_row_exact deletions answered from a cached
   drop row, m_cutoff fallback BFS runs aborted early by the threshold.
   m_nodes counts every node the engine's own BFS pops (precompute rows
   and fallbacks alike), the apples-to-apples figure against the naive
   oracle's [bfs.visits]. *)
let m_moves = Telemetry.counter "swap_eval.moves_evaluated"

let m_certified = Telemetry.counter "swap_eval.certified"

let m_row_exact = Telemetry.counter "swap_eval.row_exact"

let m_fallbacks = Telemetry.counter "swap_eval.bfs_fallbacks"

let m_cutoff = Telemetry.counter "swap_eval.cutoff_aborts"

let m_nodes = Telemetry.counter "swap_eval.bfs_nodes"

let m_precompute = Telemetry.counter "swap_eval.precompute_bfs"

let m_synth = Telemetry.counter "swap_eval.rows_synthesized"

(* vertices touched by per-actor component splits: O(n + m) traversals,
   tallied apart from [bfs_nodes] because they do no distance work *)
let m_aux = Telemetry.counter "swap_eval.aux_scans"

(* One single-source distance vector plus its summaries. [by_far] is the
   vertex order sorted by decreasing distance, built lazily — only the
   max-game bound scan wants it. *)
type row = {
  dist : int array;
  row_sum : int;
  row_ecc : int;
  row_reached : int;
  mutable by_far : int array option;
}

type t = {
  g : Graph.t;
  n : int;
  (* distance rows in the current graph, keyed by source vertex; a row is
     valid while its epoch matches. The actor's pre-move vector is just
     the actor's row, so it is shared with bound evaluations that need
     distances from a swap target. *)
  rows : row option array;
  row_epoch : int array;
  (* drop rows: distances from an agent with one incident edge removed,
     keyed by the dropped neighbor and tagged with the agent they belong
     to. These are exactly the post-move distances of a deletion, and the
     "paths avoiding the new edge" side of the swap bound. *)
  dd : row option array;
  dd_epoch : int array;
  dd_agent : int array;
  (* per-actor split of G - v into components ([label], with the number
     of v-neighbors inside each component in [nbrs]): one traversal per
     actor that settles, for every incident edge vw at once, whether vw
     is a bridge and which vertices hang off it. *)
  aux : (int array * int array) option array;
  aux_epoch : int array;
  mutable epoch : int;
  (* stamped scratch for the bounded fallback BFS *)
  queue : int array;
  stamp : int array;
  sdist : int array;
  mutable gen : int;
}

let create g =
  let n = Graph.n g in
  let cap = max n 1 in
  {
    g;
    n;
    rows = Array.make cap None;
    row_epoch = Array.make cap (-1);
    dd = Array.make cap None;
    dd_epoch = Array.make cap (-1);
    dd_agent = Array.make cap (-1);
    aux = Array.make cap None;
    aux_epoch = Array.make cap (-1);
    epoch = 0;
    queue = Array.make cap 0;
    stamp = Array.make cap (-1);
    sdist = Array.make cap 0;
    gen = 0;
  }

let graph t = t.g

let invalidate t = t.epoch <- t.epoch + 1

(* Full BFS from [src] into [dist], optionally ignoring the edge
   src–skip ([skip = -1] for none). Unreached vertices keep the
   [unreachable] sentinel. Returns (sum, ecc, reached). *)
let bfs_row t src ~skip dist =
  Array.fill dist 0 t.n unreachable;
  dist.(src) <- 0;
  t.queue.(0) <- src;
  let head = ref 0 and tail = ref 1 in
  let sum = ref 0 and ecc = ref 0 in
  while !head < !tail do
    let v = t.queue.(!head) in
    incr head;
    let dnext = dist.(v) + 1 in
    Graph.iter_neighbors
      (fun w ->
        if dist.(w) = unreachable && not (v = src && w = skip) then begin
          dist.(w) <- dnext;
          sum := !sum + dnext;
          if dnext > !ecc then ecc := dnext;
          t.queue.(!tail) <- w;
          incr tail
        end)
      t.g v
  done;
  Telemetry.add m_nodes !head;
  Telemetry.incr m_precompute;
  (!sum, !ecc, !tail)

let make_row t src ~skip prev =
  let dist = match prev with Some r -> r.dist | None -> Array.make t.n 0 in
  let sum, ecc, reached = bfs_row t src ~skip dist in
  { dist; row_sum = sum; row_ecc = ecc; row_reached = reached; by_far = None }

let get_row t src =
  match t.rows.(src) with
  | Some r when t.row_epoch.(src) = t.epoch -> r
  | prev ->
    let r = make_row t src ~skip:(-1) prev in
    t.rows.(src) <- Some r;
    t.row_epoch.(src) <- t.epoch;
    r

let get_aux t v =
  match t.aux.(v) with
  | Some a when t.aux_epoch.(v) = t.epoch -> a
  | _ ->
    let label, count = Components.components_without t.g v in
    let nbrs = Array.make (max count 1) 0 in
    Array.iter (fun w -> nbrs.(label.(w)) <- nbrs.(label.(w)) + 1)
      (Graph.neighbors t.g v);
    Telemetry.add m_aux t.n;
    let a = (label, nbrs) in
    t.aux.(v) <- Some a;
    t.aux_epoch.(v) <- t.epoch;
    a

(* [is_bridge]: vw disconnects iff w's side of G - v has no other edge
   back to v. When it holds, the drop row needs no BFS at all: removing
   a bridge leaves every shortest path on the actor's side intact (a
   simple path cannot cross the bridge and return), and strands w's
   side entirely — so the row is the actor's row with w's component
   overwritten by the unreachable sentinel, a pure array copy. *)
let is_bridge t actor drop =
  let label, nbrs = get_aux t actor in
  nbrs.(label.(drop)) = 1

let synth_drop_row t actor drop prev =
  let arow = get_row t actor in
  let label, _ = get_aux t actor in
  let c = label.(drop) in
  let dist = match prev with Some r -> r.dist | None -> Array.make t.n 0 in
  let sum = ref 0 and ecc = ref 0 and reached = ref 0 in
  for x = 0 to t.n - 1 do
    let d = if x <> actor && label.(x) = c then unreachable else arow.dist.(x) in
    dist.(x) <- d;
    if d <> unreachable then begin
      sum := !sum + d;
      if d > !ecc then ecc := d;
      incr reached
    end
  done;
  Telemetry.incr m_synth;
  { dist; row_sum = !sum; row_ecc = !ecc; row_reached = !reached; by_far = None }

let get_drop_row t actor drop =
  match t.dd.(drop) with
  | Some r when t.dd_epoch.(drop) = t.epoch && t.dd_agent.(drop) = actor -> r
  | prev ->
    let r =
      if is_bridge t actor drop then synth_drop_row t actor drop prev
      else make_row t actor ~skip:drop prev
    in
    t.dd.(drop) <- Some r;
    t.dd_epoch.(drop) <- t.epoch;
    t.dd_agent.(drop) <- actor;
    r

let by_far_of n r =
  match r.by_far with
  | Some o -> o
  | None ->
    let o = Array.init n (fun i -> i) in
    Array.sort (fun a b -> compare r.dist.(b) r.dist.(a)) o;
    r.by_far <- Some o;
    o

let connected t = t.n <= 1 || (get_row t 0).row_reached = t.n

let cost_of_row game n r =
  if r.row_reached < n then Usage_cost.infinite
  else match game with Game.Max -> r.row_ecc | Game.Sum | Game.Alpha _ -> r.row_sum

(* Any finite distance in an n-vertex graph is < n, so clamping the
   unreachable sentinel to n keeps every arithmetic bound below both
   sound and overflow-free. *)
let clamp n d = if d > n then n else d

(* Bounded exact evaluation: BFS from [src] on the (already mutated)
   graph, aborting as soon as the result provably reaches [target].
   Returns (cost, aborted): when not aborted the cost is exact
   ({!Usage_cost.infinite} on disconnection). *)
let bounded_cost t game ~target src =
  t.gen <- t.gen + 1;
  let gen = t.gen in
  t.sdist.(src) <- 0;
  t.stamp.(src) <- gen;
  t.queue.(0) <- src;
  let head = ref 0 and tail = ref 1 in
  let sum = ref 0 and ecc = ref 0 in
  let aborted = ref false in
  while (not !aborted) && !head < !tail do
    let v = t.queue.(!head) in
    incr head;
    let dnext = t.sdist.(v) + 1 in
    Graph.iter_neighbors
      (fun w ->
        if t.stamp.(w) <> gen then begin
          t.stamp.(w) <- gen;
          t.sdist.(w) <- dnext;
          sum := !sum + dnext;
          if dnext > !ecc then ecc := dnext;
          t.queue.(!tail) <- w;
          incr tail
        end)
      t.g v;
    match game with
    | Game.Max -> if !ecc >= target then aborted := true
    | Game.Sum | Game.Alpha _ ->
      (* BFS level property: every vertex not yet pushed while popping a
         depth-(dnext-1) node is at distance >= dnext *)
      if !sum + ((t.n - !tail) * dnext) >= target then aborted := true
  done;
  Telemetry.add m_nodes !head;
  if !aborted then (0, true)
  else if !tail < t.n then (Usage_cost.infinite, false)
  else
    ((match game with Game.Max -> !ecc | Game.Sum | Game.Alpha _ -> !sum), false)

let fallback t game ~cutoff ~before mv =
  Telemetry.incr m_fallbacks;
  Swap.apply t.g mv;
  let after, aborted =
    bounded_cost t game ~target:(before + cutoff) (Swap.actor mv)
  in
  Swap.undo t.g mv;
  if aborted then begin
    Telemetry.incr m_cutoff;
    None
  end
  else begin
    let d = after - before in
    if d < cutoff then Some d else None
  end

(* Sound per-vertex lower bound on the post-move distance from the actor,
   for the swap drop w / add w'. Write H = G - vw and G' = H + vw'. A
   shortest v–x path in G' either avoids vw' (then it lives in H, length
   >= dd(x)) or uses vw' as its first edge (simple paths use an edge
   incident to their endpoint only there), leaving a w'–x segment inside
   G' - v = H - v, of length >= d_H(w',x). Two sound lower bounds on
   d_H(w',x): removal only lengthens, so d_H(w',x) >= d_G(w',x) — read
   exactly off the (cached, shared across actors) distance row of w' —
   and the triangle through v in H gives d_H(w',x) >= |dd(x) - dd(w')|.
   Hence
     d'(v,x) >= min(dd(x), 1 + max(1, d_G(w',x), |dd(x) - dd(w')|))
   for x <> w', and d'(v,w') = 1 exactly. All distances clamped at n, so
   the bound stays sound (any finite distance is < n) when a term is an
   unreachable sentinel. On a tree both cases are tight — the unique
   G'-path from v either survives from H or rides the new edge and then
   runs inside w's old subtree, where G-distances from w' are unchanged —
   so every non-improving tree swap is certified without BFS.

   Before any of that, the actor's component split settles disconnection
   exactly: if vw is a bridge and w' lies on the actor's side, the new
   edge reconnects nothing and the after-cost is exactly infinite —
   answered with no distance row at all. If w' lies on w's side, H has
   exactly two components and vw' rejoins them, so the bounds below
   apply as usual (with the drop row synthesized, not BFS-computed,
   whenever vw is a bridge). *)
let eval_swap t game ~cutoff ~actor ~drop ~add =
  let n = t.n in
  let arow = get_row t actor in
  let before = cost_of_row game n arow in
  let label, nbrs = get_aux t actor in
  if
    (not (Usage_cost.is_infinite before))
    && nbrs.(label.(drop)) = 1
    && label.(add) <> label.(drop)
  then begin
    (* vw is a bridge and the new edge lands on the actor's side: w's
       component stays stranded, the after-cost is exactly infinite —
       answered from the component split alone, with no distance row *)
    Telemetry.incr m_row_exact;
    let d = Usage_cost.infinite - before in
    if d < cutoff then Some d else None
  end
  else if
    (not (Usage_cost.is_infinite before)) && nbrs.(label.(drop)) = 1
  then begin
    (* vw is a bridge and w' sits on w's side c: in G' the new edge vw'
       is the sole link between c and the rest again, so the move is
       exact from cached rows alone — distances off c are untouched
       (arow), distances into c ride the new edge first and then run
       inside c, where G-distances from w' are intra-component already:
       d'(x) = 1 + d_G(w', x). No per-move BFS, no bound slack. *)
    let addrow = get_row t add in
    let c = label.(drop) in
    Telemetry.incr m_row_exact;
    let after =
      match game with
      | Game.Sum | Game.Alpha _ ->
        let s = ref 0 in
        for x = 0 to n - 1 do
          if x <> actor then
            s :=
              !s
              + (if label.(x) = c then 1 + addrow.dist.(x) else arow.dist.(x))
        done;
        !s
      | Game.Max ->
        let e = ref 0 in
        for x = 0 to n - 1 do
          if x <> actor then begin
            let d =
              if label.(x) = c then 1 + addrow.dist.(x) else arow.dist.(x)
            in
            if d > !e then e := d
          end
        done;
        !e
    in
    let d = after - before in
    if d < cutoff then Some d else None
  end
  else begin
  let ddrow = get_drop_row t actor drop in
  let target = before + cutoff in
  let certified =
    if Usage_cost.is_infinite before then false
    else begin
      let addrow = get_row t add in
      let a_h = clamp n ddrow.dist.(add) in
      let via x =
        if x = add then 1
        else begin
          let t1 = clamp n addrow.dist.(x) in
          let t2 = abs (clamp n ddrow.dist.(x) - a_h) in
          1 + max 1 (max t1 t2)
        end
      in
      match game with
      | Game.Sum | Game.Alpha _ ->
        (* certified once the lower bounds collected so far, plus >= 1
           for every vertex not yet scanned, already reach the target *)
        let lb = ref 0 in
        let remaining = ref (n - 1) in
        let ok = ref false in
        let x = ref 0 in
        while (not !ok) && !x < n do
          if !x <> actor then begin
            lb := !lb + min (clamp n ddrow.dist.(!x)) (via !x);
            decr remaining;
            if !lb + !remaining >= target then ok := true
          end;
          incr x
        done;
        !ok
      | Game.Max ->
        (* one vertex provably still at distance >= target suffices; scan
           in decreasing drop-row distance so the far vertices come
           first, and stop once the drop row itself drops below target *)
        let order = by_far_of n ddrow in
        let ok = ref false in
        let stop = ref false in
        let i = ref 0 in
        while (not !ok) && (not !stop) && !i < n do
          let x = order.(!i) in
          incr i;
          if x <> actor then begin
            if clamp n ddrow.dist.(x) < target then stop := true
            else if x <> add && via x >= target then ok := true
          end
        done;
        !ok
    end
  in
  if certified then begin
    Telemetry.incr m_certified;
    None
  end
  else fallback t game ~cutoff ~before (Swap.Swap { actor; drop; add })
  end

let delta_below t game mv ~cutoff =
  Telemetry.incr m_moves;
  match mv with
  | Swap.Swap { actor; drop; add } -> eval_swap t game ~cutoff ~actor ~drop ~add
  | Swap.Delete { actor; drop } ->
    (* the drop row is the exact post-deletion distance vector *)
    let arow = get_row t actor in
    let before = cost_of_row game t.n arow in
    let ddrow = get_drop_row t actor drop in
    let after = cost_of_row game t.n ddrow in
    Telemetry.incr m_row_exact;
    let d = after - before in
    if d < cutoff then Some d else None

let delta t game mv =
  (* a cutoff no finite delta reaches: bounds never certify against it
     and the fallback BFS never aborts, so the result is always exact *)
  match delta_below t game mv ~cutoff:(max_int / 2) with
  | Some d -> d
  | None -> assert false

let best_move t game v =
  let best = ref None in
  Swap.iter_moves t.g v (fun mv ->
      let cutoff = match !best with None -> 0 | Some (_, bd) -> bd in
      match delta_below t game mv ~cutoff with
      | Some d -> best := Some (mv, d)
      | None -> ());
  !best

exception Found of Swap.move * int

let first_improving_move t game v =
  try
    Swap.iter_moves t.g v (fun mv ->
        match delta_below t game mv ~cutoff:0 with
        | Some d -> raise (Found (mv, d))
        | None -> ());
    None
  with Found (mv, d) -> Some (mv, d)

let random_improving_move rng t game v =
  (* reservoir sampling over the improving moves, identical to the naive
     scan: certified-non-improving candidates consume no randomness there
     either, so the PRNG streams coincide *)
  let pick = ref None in
  let seen = ref 0 in
  Swap.iter_moves t.g v (fun mv ->
      match delta_below t game mv ~cutoff:0 with
      | Some d ->
        incr seen;
        if Prng.int rng !seen = 0 then pick := Some (mv, d)
      | None -> ());
  !pick
