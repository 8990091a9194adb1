(** Better/best-response swap dynamics.

    The game's natural process: agents take turns performing improving edge
    swaps until no one can improve — a swap equilibrium. Swap games are not
    known to be potential games, so the engine detects revisited states by
    hashing the edge set and also enforces a round cap. In the max game
    agents additionally drop extraneous edges (deletions that do not hurt
    their local diameter), which the paper folds into "swap onto an
    existing edge"; deletions strictly decrease the edge count so they
    cannot cycle. *)

val log_src : Logs.Src.t
(** Log source ["bncg.dynamics"]: per-move debug lines and an info line per
    run. Silent unless the application installs a reporter. *)

type rule =
  | Best_response  (** the most-improving move of the scheduled agent *)
  | First_improving  (** the first improving move in scan order *)
  | Random_improving  (** uniform among the agent's improving moves *)
  | Sampled of int
      (** bounded rationality: the agent examines only this many uniformly
          sampled candidate swaps per activation and takes the best
          improving one — the paper's "computationally bounded agents"
          motivation made operational. With this rule a quiet pass does
          not certify equilibrium; the engine still confirms convergence
          with one full scan (without applying moves from it). *)

type schedule =
  | Round_robin  (** agents 0..n-1 in order, repeatedly *)
  | Random_agent  (** uniformly random agent each step *)

type outcome =
  | Converged  (** a full pass found no improving move: swap equilibrium *)
  | Cycled  (** a previously seen graph state recurred *)
  | Round_limit  (** the cap was reached first *)

type config = {
  game : Game.t;
  rule : rule;
  schedule : schedule;
  max_rounds : int;  (** a round = n scheduled agents *)
  allow_deletions : bool;
      (** offer cost-neutral deletions to agents (sensible for [Max];
          default there) *)
  record_trace : bool;  (** keep per-move social cost / diameter series *)
}

val default_config : Game.t -> config
(** Best-response, round-robin, [max_rounds = 10_000]; deletions enabled
    exactly for [Max]; no trace. *)

type step = {
  index : int;  (** move number, from 0 *)
  move : Swap.move;
  delta : int;  (** actor's cost change (< 0, or = 0 for deletions) *)
  social : int;  (** social cost after the move *)
  diameter : int;  (** diameter after the move *)
}

type result = {
  final : Graph.t;
  outcome : outcome;
  rounds : int;
  moves : int;
  trace : step list;  (** chronological; empty unless [record_trace] *)
}

val draw_sampled_candidates :
  Prng.t -> deg:int -> n:int -> budget:int -> (int * int) array
(** The candidate stream of one [Sampled] activation: [budget]
    (drop-index, add) pairs, drawn drop-index-then-add per candidate.
    Exposed so the large-n sampled engine ({!Scale_dynamics} in
    [lib/scale]) consumes the {e same} stream in the same order and
    reproduces this module's move sequences byte-identically; candidate
    {e evaluation} must therefore never consume randomness. *)

val run : ?rng:Prng.t -> config -> Graph.t -> result
(** Runs the dynamics on a copy of the input (the input graph is not
    mutated). The input must be connected. For [Game.Alpha _] the run
    delegates to {!Alpha_game.run_dynamics} (round-robin best-response
    over Buy/Sell/Swap_owned with default ownership); [rule], [schedule],
    [allow_deletions] and [record_trace] are swap-engine refinements and
    are ignored there — the trace comes back empty.
    @raise Invalid_argument on disconnected input. *)
