(** Exact O(1)-per-swap evaluation on trees.

    On a tree, dropping the edge actor–drop splits the vertex set into the
    actor's side and the drop side; re-attaching anywhere on the actor's own
    side disconnects the graph, and re-attaching to [w'] on the drop side
    yields a closed-form new distance sum:

      new_sum(actor) = S_actor(own side) + |drop side| + S_{w'}(drop side)

    with both terms expressible through precomputed distance-sum and
    subtree data. This makes a full best-response scan of all agents O(n²)
    instead of O(n² · deg · m), which is what lets the tree experiments run
    at n in the thousands (Theorem 1 at scale). All functions raise
    [Invalid_argument] on non-trees. *)

type precomp
(** Distance matrix, per-vertex distance sums, and per-directed-edge side
    data for one fixed tree. Invalidated by any mutation. *)

val precompute : Graph.t -> precomp
(** O(n²) time and memory. *)

val sum_cost : precomp -> int -> int
(** The agent's distance sum (same as [Usage_cost.vertex_cost Game.Sum]). *)

val swap_delta : precomp -> actor:int -> drop:int -> add:int -> int
(** O(1). Cost change for the actor of replacing edge actor–drop with
    actor–add. [Usage_cost.infinite] when the swap disconnects (i.e. [add]
    is on the actor's own side). Requires actor–drop to be an edge and
    [add] to be neither endpoint nor a current neighbor. *)

val best_swap : precomp -> int -> (Swap.move * int) option
(** Most-improving swap of one agent, or [None]; O(n · deg). Agrees with
    [Swap.best_move] on trees (same tie-breaking by enumeration order:
    neighbors in row order, targets in increasing vertex order). *)

(** {1 Max version}

    The same decomposition works for eccentricities: after re-hanging onto
    [w'] on the drop side, the actor's local diameter is
    [max(own-side ecc, 1 + ecc of w' within the drop side)], and a
    subtree's eccentricities are O(1) queries once its diametral pair is
    known (in a tree, every restricted eccentricity is attained at an end
    of a diametral path of that subtree). *)

type max_precomp

val precompute_max : Graph.t -> max_precomp
(** O(n²) time and memory (distance matrix plus a diametral pair per
    directed edge). *)

val max_swap_delta : max_precomp -> actor:int -> drop:int -> add:int -> int
(** O(1). Eccentricity change of the actor; {!Usage_cost.infinite} when
    the swap disconnects. Same preconditions as {!swap_delta}. *)

val best_max_swap : max_precomp -> int -> (Swap.move * int) option
(** Most-improving max-swap of one agent; agrees with
    [Swap.best_move ws Game.Max] on trees. *)

(** {1 Both games} *)

val is_equilibrium : Game.t -> Graph.t -> bool
(** No agent holds an improving swap under the game's cost; O(n²).
    Agrees with [Equilibrium.is_equilibrium] on trees: a tree has no
    non-critical deletion, since every deletion disconnects it.
    @raise Invalid_argument for [Alpha _] (no tree evaluator). *)

val converge : ?max_rounds:int -> Game.t -> Graph.t -> Graph.t * int
(** Best-response rounds using the fast evaluator, recomputing the O(n²)
    tables once per applied move (swaps only — deletions disconnect trees
    and are never improving). Returns the final tree and the number of
    moves; the round cap (default 10_000 moves) is a safety net. Whenever
    it converges the result is a star for [Sum] (Theorem 1) and has
    diameter <= 3 for [Max] (Theorem 4).
    @raise Invalid_argument for [Alpha _]. *)
