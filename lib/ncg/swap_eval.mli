(** Incremental swap evaluation: the naive oracle ({!Swap.delta}) pays a
    full apply → BFS-from-actor → undo cycle per candidate move, i.e.
    2·O(n + m) BFS per candidate, and recomputes the actor's pre-move cost
    every time. This engine amortises that work across all candidate moves
    of an agent:

    - the actor's pre-move distance vector is one shared row, computed
      once per agent and reused by every candidate;
    - one component split of [G - actor] per agent settles, for every
      incident edge at once, which drops are bridges; bridge swaps are
      then evaluated {e exactly} from cached rows alone (disconnecting
      ones from the split itself, reconnecting ones because the new edge
      is the unique link between the two sides), with no per-move BFS;
    - each non-bridge dropped edge gets one "drop row" (distances from
      the actor with that single edge removed), shared by all swap
      targets of that drop and answering deletion deltas exactly with no
      further BFS;
    - per remaining candidate, sound triangle-inequality lower bounds on
      the post-move cost certify "not improving" without any BFS at all;
    - only candidates the bounds cannot refute fall back to an exact BFS
      on the mutated graph, with an early cutoff that aborts as soon as
      the partial sum (or the running eccentricity) proves the move cannot
      beat the threshold.

    Certified skips and fallback results agree exactly with the naive
    oracle: every verdict, witness move and reported delta is
    byte-identical (property-tested against {!Swap.delta}). See DESIGN.md
    "Incremental swap evaluation" for the soundness argument — in
    particular why the tempting upper bound
    [d'(v,x) <= 1 + d_old(w',x)] is {e unsound} and is not used.

    Telemetry (under [swap_eval.*]): moves evaluated, bound-certified
    skips, exact row answers, BFS fallbacks, cutoff aborts, BFS nodes
    visited, precompute BFS runs, synthesized rows and component-split
    scans. *)

type t
(** An evaluation engine bound to one graph. Distance rows are cached
    per graph state; see {!invalidate}. Not domain-safe — use one engine
    per domain (on its own {!Graph.copy}), mirroring {!Bfs.workspace}
    discipline. *)

val create : Graph.t -> t
(** [create g] binds an engine to [g]. O(n) allocation up front; distance
    rows are allocated lazily, one per requested source. *)

val graph : t -> Graph.t
(** The graph the engine evaluates moves on. *)

val connected : t -> bool
(** Whether the bound graph is connected, answered from vertex 0's
    cached distance row — free when a scan starting at agent 0 follows,
    since that scan needs the row anyway. *)

val invalidate : t -> unit
(** Drop every cached distance row. Must be called after any external
    mutation of the bound graph (the engine's own fallback applies and
    undoes candidate moves internally; that does not require
    invalidation). *)

val delta_below : t -> Game.t -> Swap.move -> cutoff:int -> int option
(** [delta_below eng game mv ~cutoff] is [Some d] with the {e exact}
    delta [d = Swap.delta ws game g mv] when [d < cutoff], and [None]
    when the engine certifies [d >= cutoff] (possibly without computing
    [d] exactly). [cutoff = 0] asks for strictly improving moves;
    [cutoff = 1] for non-worsening ones (the max-game deletion
    criterion); a current best delta as cutoff prunes to strictly better
    moves only. The graph is returned unchanged. *)

val delta : t -> Game.t -> Swap.move -> int
(** Exact delta, always computed: equal to {!Swap.delta} on the same
    graph (including the {!Usage_cost.infinite} convention on
    disconnection). *)

(** {1 Per-agent scans}

    Engine-backed equivalents of the naive scans in {!Swap}: identical
    results (same enumeration order, same tie-breaking, and for the
    random variant the same PRNG stream — non-improving candidates do not
    consume randomness in either implementation). *)

val best_move : t -> Game.t -> int -> (Swap.move * int) option

val first_improving_move : t -> Game.t -> int -> (Swap.move * int) option

val random_improving_move :
  Prng.t -> t -> Game.t -> int -> (Swap.move * int) option
