(** Exact diameter without all-pairs BFS: the iFUB algorithm
    (Crescenzi, Grossi, Habib, Lanzi, Marino; TCS 2013).

    A double sweep finds a long shortest path; rooting a BFS at its
    midpoint, vertices are processed by decreasing level — the upper bound
    2·level meets the running lower bound after few eccentricity
    computations on most real graphs. Worst case matches the naive O(n·m)
    bound, typical case is a handful of BFS runs. Only the bench
    harness (one kernel row in [bench/main.ml], on the k = 8 Theorem 12
    torus) and its own tests call it; the tests cross-check it against
    {!Metrics.diameter}. *)

val double_sweep_lower_bound : Graph.t -> int option
(** Eccentricity of the vertex found by two BFS hops from a max-degree
    start: a classical diameter lower bound (often tight). [None] if
    disconnected. *)

type stats = {
  diameter : int;
  bfs_runs : int;  (** total BFS traversals used, including the sweeps *)
}

val diameter_with_stats : Graph.t -> stats option
(** Exact diameter; [None] if disconnected (or n = 0). *)

val diameter : Graph.t -> int option
(** [diameter g = Option.map (fun s -> s.diameter) (diameter_with_stats g)] —
    always equal to {!Metrics.diameter}. *)
