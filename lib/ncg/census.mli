(** Exhaustive classification of small equilibria.

    The paper's tree theorems (1 and 4) and the "all known sum equilibria
    have diameter <= 3" observation are universally quantified statements
    over finite ranges; this module checks them against the {e entire}
    universe of labeled trees / connected graphs in the tractable range,
    producing the E1/E2/E4 tables.

    Every census is {!run_shard} on a {!shard} — a contiguous piece of a
    rank space — and pieces combine with {!merge_result}; the sequential,
    pooled ([?pool]), served ([census-shard]) and distributed
    ({!Dispatch} in [lib/serve]) runs differ only in who runs which
    piece. {!tree_census}, {!graph_census} and {!orderly_census} are
    typed projections of the full shard. *)

type tree_census = {
  n : int;
  total : int;  (** labeled trees examined: n^(n-2) *)
  equilibria : int;  (** labeled count *)
  stars : int;  (** labeled stars among them *)
  double_stars : int;  (** labeled double stars among them (max only) *)
  max_eq_diameter : int;  (** largest equilibrium diameter seen; 0 if none *)
  witnesses_verified : int;
      (** non-equilibrium trees whose proof-witness swap was checked to
          strictly improve *)
}

type graph_census = {
  n : int;
  connected : int;  (** connected labeled graphs examined *)
  equilibria_labeled : int;
  equilibria_iso : Graph.t list;
      (** one representative per iso class: the minimum-mask equilibrium
          labeling, in ascending mask order *)
  diameter_histogram : (int * int) list;
      (** equilibrium diameter -> iso-class count *)
  max_diameter : int;
}

(** {1 Shards}

    Ranks are Prüfer ranks for {!Trees}, edge-subset masks for {!Graphs}
    and generation-tree root indices for {!Orderly}; disjoint adjacent
    shards merged in ascending rank order reproduce the full census
    exactly (for {!Orderly}, any adjacent-merge order does).

    {!Graphs} walks every labeled graph and deduplicates equilibria by
    canonical form; {!Orderly} visits one canonical graph per isomorphism
    class (see {!Orderly.iter}), recovers labeled counts by
    orbit-stabilizer ([n!/|Aut|] copies per class) and reports each
    equilibrium class by its minimum-mask labeling, so the two records
    are byte-identical wherever both run. Orderly reaches
    [n <=] {!Orderly.max_vertices} (11) but needs an
    isomorphism-invariant game: the α-game's verdict depends on the
    labeling through edge ownership. *)

type kind = Trees | Graphs | Orderly

type shard = {
  kind : kind;
  game : Game.t;
  n : int;
  lo : int;  (** inclusive start rank *)
  hi : int;  (** exclusive end rank *)
}

type result =
  | Tree_result of tree_census
  | Graph_result of graph_census
  | Orderly_result of graph_census
      (** Same record as {!Graph_result} but a distinct constructor, so
          the merge fits the geometry: rank-range shards can repeat a
          class and dedup by canonical form, orderly shards hold disjoint
          classes and merge by mask alone. *)

val kind_name : kind -> string
(** The wire name: ["trees"], ["graphs"] or ["orderly"]. *)

val kind_of_name : string -> kind option

val graph_kind : Game.t -> kind
(** The graph enumeration a game's census uses: {!Orderly} for the basic
    games (sum, max), {!Graphs} for [Alpha _]. *)

val max_shard_vertices : kind -> int
(** {!Enumerate.max_tree_vertices} / {!Enumerate.max_graph_vertices} /
    {!Orderly.max_vertices}. *)

val shard_space : kind -> int -> int
(** Size of the full rank space on [n] vertices: [n^(n-2)] labeled trees,
    [2^(n(n-1)/2)] edge masks or {!Orderly.space} roots. [n] must be
    within {!max_shard_vertices}. *)

val full_shard : kind -> Game.t -> int -> shard
(** The whole census as a single shard: [lo = 0], [hi = shard_space].
    @raise Invalid_argument when [n] is out of range. *)

val validate_shard : shard -> (unit, string) Stdlib.result
(** Total bounds check ([n] within the kind's cap, [0 <= lo <= hi <=]
    {!shard_space}), plus the game/kind compatibility rule ({!Orderly}
    requires a basic game); the returned message is suitable for a
    structured [invalid_params] reply. *)

val run_shard : ?atlas:Atlas.t -> ?pool:Pool.t -> shard -> result
(** Classify every tree/graph of the shard's rank range. For the sum
    game every non-star tree receives the Theorem 1 witness; for max,
    trees of diameter >= 4 receive the Lemma 2 witness and the rest run
    the generic checker. With a [?pool] of more than one job the range
    is cut into chunks, each classified on its offset sub-range, and the
    chunks are folded with {!merge_result} in ascending order — the
    result equals the sequential one, and [census.shard.calls] counts
    one span per chunk. [?atlas] memoizes per-labeled-graph equilibrium
    verdicts (key [eq:<game>:<graph6>], value ["1"]/["0"]; orderly and
    rank-range runs populate disjoint entries) and never changes the
    result; tree shards ignore it (the closed-form tree classification
    is cheaper than a probe). @raise Invalid_argument when
    {!validate_shard} fails. *)

val split : shard -> parts:int -> shard list
(** [split s ~parts] cuts [s] into at most [parts] contiguous,
    near-equal, disjoint shards covering exactly [[s.lo, s.hi)], in
    ascending rank order (fewer when the range is narrower than [parts];
    an empty range stays a single empty shard). Deterministic, so a
    resumed run with the same [parts] reproduces the same boundaries.
    @raise Invalid_argument when [parts < 1]. *)

val merge_result : result -> result -> result
(** Counts add and maxima max. Rank-range representatives are
    re-deduplicated by canonical form, the first argument's copy winning;
    orderly representative lists merge by mask. The first argument must
    be the lower-rank shard. @raise Invalid_argument on mixed kinds or
    different [n]. *)

(** {1 Whole censuses} *)

val tree_census : ?pool:Pool.t -> Game.t -> int -> tree_census
(** All labeled trees on [n] vertices
    (n <= {!Enumerate.max_tree_vertices}): [run_shard] on the full
    {!Trees} shard. *)

val graph_census :
  ?atlas:Atlas.t -> ?pool:Pool.t -> Game.t -> int -> graph_census
(** All connected labeled graphs on [n] vertices, enumerated as
    {!graph_kind} picks: orderly for sum and max
    (n <= {!Orderly.max_vertices}; on one core n = 8 takes about two
    minutes for sum and two seconds for max), rank-range for the α-game
    (n <= {!Enumerate.max_graph_vertices}; n = 7 takes about two minutes
    on one core). *)

val orderly_census :
  ?atlas:Atlas.t -> ?pool:Pool.t -> Game.t -> int -> graph_census
(** [run_shard] on the full {!Orderly} shard.
    @raise Invalid_argument for [Alpha _]. *)
