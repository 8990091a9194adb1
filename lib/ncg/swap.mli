(** Edge-swap moves: the only operation of the basic game.

    An agent [actor] may replace one incident edge [actor–drop] by another
    incident edge [actor–add]. Swapping onto an existing edge is the
    paper's encoding of deletion, represented explicitly by {!Delete}.

    Evaluation here is the {e naive oracle}: apply the move, BFS from the
    actor, undo — two full BFS per candidate. The equilibrium checkers,
    dynamics and hunts evaluate candidates through {!Swap_eval} instead,
    which amortises distance vectors across an agent's moves and
    bound-certifies most skips; the scans below are kept as the reference
    implementation the engine is differential-tested against. *)

type move =
  | Swap of { actor : int; drop : int; add : int }
      (** Replace edge actor–drop by the (previously absent) edge
          actor–add. *)
  | Delete of { actor : int; drop : int }
      (** Remove edge actor–drop (the "swap onto an existing edge"
          special case). *)

val actor : move -> int

val pp_move : Format.formatter -> move -> unit

val move_to_string : move -> string

val is_applicable : Graph.t -> move -> bool
(** [Swap]: actor–drop present, actor–add absent, all three vertices
    distinct. [Delete]: actor–drop present. *)

val apply : Graph.t -> move -> unit
(** Mutates the graph. @raise Invalid_argument if not applicable. *)

val undo : Graph.t -> move -> unit
(** Exact inverse of {!apply}. *)

val delta : Bfs.workspace -> Game.t -> Graph.t -> move -> int
(** [delta ws game g mv] is (actor's cost after) − (actor's cost
    before); negative means the move strictly improves the actor. The
    graph is returned unchanged. Disconnection makes the after-cost
    {!Usage_cost.infinite}. This is the naive apply/BFS/undo oracle;
    {!Swap_eval.delta} computes the same value incrementally. *)

val iter_moves :
  ?include_deletions:bool -> Graph.t -> int -> (move -> unit) -> unit
(** All moves available to one agent: each incident edge against each
    non-neighbor, plus (optionally) each incident deletion. Deletions are
    off by default — they never help in the sum game. *)

val iter_all_moves :
  ?include_deletions:bool -> Graph.t -> (move -> unit) -> unit

val best_move :
  Bfs.workspace -> Game.t -> Graph.t -> int -> (move * int) option
(** Most-improving swap for one agent: the move with the smallest strictly
    negative delta, or [None] at a local optimum. Ties broken by move
    enumeration order. *)

val first_improving_move :
  Bfs.workspace -> Game.t -> Graph.t -> int -> (move * int) option

val random_improving_move :
  Prng.t ->
  Bfs.workspace ->
  Game.t ->
  Graph.t ->
  int ->
  (move * int) option
(** Uniformly random improving swap of the agent (scans all candidates,
    reservoir-samples among the improving ones). *)

val move_count : Graph.t -> int -> int
(** Number of swap candidates of one agent (deg · (n − 1 − deg)). *)
