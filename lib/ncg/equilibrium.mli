(** Equilibrium predicates and witnesses.

    Everything here is the paper's polynomial-time check "simply try every
    possible edge swap and deletion" — each predicate comes with a
    witness-returning variant so tests and experiments can exhibit the
    violating move rather than just a boolean. All predicates regard
    disconnected graphs as non-equilibria (usage costs are infinite and a
    swap mending connectivity improves). *)

type verdict =
  | Equilibrium
  | Disconnected
  | Violation of Swap.move * int
      (** A move and its (negative, or for max-deletions non-positive)
          delta, for the basic swap games. *)
  | Alpha_violation of Alpha_game.move * float
      (** A Buy/Sell/Swap_owned move and its (negative) delta, for
          [Game.Alpha _]. *)

val pp_verdict : Format.formatter -> verdict -> unit

(** {1 Checking a game} *)

val check : ?pool:Pool.t -> Game.t -> Graph.t -> verdict
(** [check game g] scans agents in order and reports the lowest agent's
    first violating move in enumeration order.
    - [Sum]: no swap strictly decreases the actor's distance sum.
      Deletions never decrease a distance sum so they are not checked.
    - [Max]: no swap strictly decreases the actor's local diameter,
      {b and} every incident deletion strictly increases it. A reported
      [Violation (Delete _, d)] with [d <= 0] is a failure of the
      deletion-criticality half.
    - [Alpha a]: no Buy/Sell/Swap_owned move under default ownership
      strictly decreases the actor's cost
      ({!Alpha_game.first_improving_move}); reported as an
      {!Alpha_violation}.

    With [?pool] the per-agent scans run across domains, each on its own
    graph copy; the verdict — including the exact witness move — is
    identical to the sequential scan. *)

val is_equilibrium : ?pool:Pool.t -> Game.t -> Graph.t -> bool

val agent_scan : Game.t -> Graph.t -> int -> verdict
(** [agent_scan game g] binds one evaluation state to [g] and returns the
    per-agent scan that {!check} is built from: agent [v] maps to its
    first violating move ({!Violation} or {!Alpha_violation}), or to
    [Equilibrium] when it has none. Connectivity is not checked. The
    swap games share one {!Swap_eval} engine across agents, which
    applies and undoes candidate moves on [g] (so [g] must not be
    touched concurrently); the α state works on its own copy. *)

(** {1 Deletion, insertion and multi-swap stability}

    Deletion and insertion checks use the max game's cost (the local
    diameter); the k-swap checks take the game. *)

val is_deletion_critical : Graph.t -> bool
(** Deleting any edge strictly increases the local diameter of both
    endpoints. *)

val find_non_critical_deletion : Graph.t -> (Swap.move * int) option

val is_insertion_stable : Graph.t -> bool
(** Inserting any absent edge decreases the local diameter of neither
    endpoint. *)

val find_insertion_violation : Graph.t -> (int * int) option
(** An absent edge whose insertion strictly lowers some endpoint's local
    diameter. *)

val is_stable_under_insertions : Graph.t -> k:int -> bool
(** Exhaustive: for every vertex [v] and every set of at most [k] absent
    incident edges, inserting the whole set does not decrease [v]'s local
    diameter. This is the stability notion behind the d-dimensional torus
    of Section 4 (stable for [k = d - 1]). Cost grows as C(n, k); intended
    for small instances. *)

val is_stable_under_k_swaps : Game.t -> Graph.t -> k:int -> bool
(** Exhaustive multi-swap stability under the game's usage cost: for
    every agent, every set of [j <= k] incident edges simultaneously
    re-pointed at [j] distinct fresh targets does not strictly decrease
    the agent's cost.
    [k = 1] coincides with the single-swap half of the equilibrium
    condition. Cost is C(deg, j)·C(n, j) per agent — intended for small
    instances (the Section 4 trade-off experiments). *)

val find_k_swap_violation :
  Game.t -> Graph.t -> k:int -> (int * (int * int) list) option
(** Witness for the failure of {!is_stable_under_k_swaps}: the agent and
    the (drop, add) pairing that improves it. *)

val k_change_stable_sampled :
  Prng.t -> Graph.t -> k:int -> trials:int -> bool
(** Randomized check of the stronger "change any k incident edges" notion:
    samples [trials] random (drop-set, add-set) pairs per vertex and
    verifies none decreases the vertex's local diameter. [false] is a
    disproof; [true] is only evidence. *)

(** {1 Structural lemmas} *)

val eccentricity_spread : Graph.t -> int option
(** Max minus min local diameter ([None] when disconnected) — Lemma 2
    asserts this is at most 1 in max equilibrium. *)

val lemma3_holds : Graph.t -> bool
(** For every cut vertex [v], at most one component of [G − v] contains a
    vertex at distance more than 1 from [v]. *)
