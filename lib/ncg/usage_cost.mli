(** Agent usage costs, keyed by the game.

    The paper studies two cost functions for an agent [v]:
    - {b sum} ({!Game.Sum}): the total distance from [v] to every other
      vertex;
    - {b max} ({!Game.Max}): the "local diameter" of [v], i.e. its
      eccentricity.

    {!Game.Alpha} games use the distance sum: that is the usage term of
    Fabrikant et al.'s creation cost. The α·(owned edges) creation term
    depends on edge ownership and stays in {!Alpha_game}.

    Disconnection is encoded by {!infinite}, a sentinel large enough that
    any swap leading to disconnection can never look improving, yet small
    enough that differences never overflow. *)

val infinite : int
(** Cost of a vertex that does not reach the whole graph. *)

val is_infinite : int -> bool

val vertex_cost : Bfs.workspace -> Game.t -> Graph.t -> int -> int
(** Usage cost of one agent under the given game; {!infinite} when the
    agent does not reach all vertices. *)

val social_cost : Game.t -> Graph.t -> int
(** Sum (and α) games: Σ_v vertex_cost(v) (twice the Wiener index). Max
    game: the diameter. {!infinite} when disconnected. *)

val social_cost_lower_bound : Game.t -> n:int -> m:int -> int
(** Best possible social cost of any connected graph with [n] vertices and
    [m] edges: the denominator of price-of-anarchy ratios.
    Sum (and α): [2m + 2·(n(n-1) - 2m)] — adjacent ordered pairs cost 1,
    all others at least 2 (exact when a diameter-2 graph with m edges
    exists). Max: 1 if the graph can be complete ([m = n(n-1)/2]),
    else 2. *)
