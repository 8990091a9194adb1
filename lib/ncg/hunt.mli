(** Stochastic search for high-diameter equilibria.

    The paper's open frontier on the sum side is the gap between the
    diameter-3 lower bound (Theorem 5) and the 2^O(√lg n) upper bound
    (Theorem 9): no sum equilibrium of diameter 4 is known. This module is
    a local-search harness over the space of connected graphs that hunts
    for equilibria with a prescribed minimum diameter: simulated annealing
    over single-edge toggles, with an objective that counts equilibrium
    violations and penalizes short diameters. Finding nothing proves
    nothing — but found graphs are re-verified with the exhaustive checker
    before being reported, so positives are certificates. *)

val log_src : Logs.Src.t
(** Log source ["bncg.hunt"]: progress at debug level, finds at info. *)

type config = {
  game : Game.t;
  n : int;  (** vertex count of candidate graphs *)
  target_diameter : int;  (** require diameter >= this *)
  steps : int;  (** annealing steps *)
  restarts : int;  (** independent restarts *)
  initial_temperature : float;
}

val default_config :
  ?game:Game.t -> n:int -> target_diameter:int -> unit -> config
(** 4000 steps, 4 restarts, temperature 2.0, sum game. *)

type result = {
  found : Graph.t option;
      (** a verified equilibrium with diameter >= target, if any *)
  best_violations : int;
      (** fewest violating agents seen at target diameter across the
          search (0 exactly when [found] is [Some]) *)
  evaluated : int;  (** candidate graphs scored *)
}

val violating_agents : Game.t -> Graph.t -> int
(** Number of agents holding at least one violating move per
    {!Equilibrium.agent_scan} (the search objective; 0 iff equilibrium
    for connected graphs). For the max game an agent also violates by
    holding a non-critical deletion; for [Alpha _] the moves are
    Buy/Sell/Swap_owned under default ownership. *)

val run : Prng.t -> config -> result

val hunt_sum_diameter :
  Prng.t -> n:int -> target_diameter:int -> ?steps:int -> unit -> result
(** Convenience wrapper around {!run} for the sum version. *)
