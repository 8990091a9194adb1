(** Canonical forms, isomorphism, automorphisms — for small graphs.

    The census deduplicates equilibria up to isomorphism and checks
    structural claims like "the Theorem 12 torus is vertex-transitive". The
    algorithm is classical: iterated color refinement (1-WL) to split
    vertices into classes, then a backtracking search over class-respecting
    permutations for the lexicographically minimal adjacency bitstring.
    Exponential in the worst case, so guarded: intended for n <= 12 or
    highly refined graphs; functions raise [Invalid_argument] past
    [max_search_vertices] unless documented otherwise. *)

val max_search_vertices : int
(** Hard cap (16) on the backtracking entry points. *)

val refine : Graph.t -> int array
(** Stable coloring from iterated neighborhood refinement; color ids are
    dense in [\[0, k)] and sorted by class signature. Isomorphic graphs get
    identical color histograms. Works for any size. *)

(** {1 The canonical search}

    One backtracking search over class-respecting vertex orders finds
    the lexicographically minimal adjacency bitstring and returns it as
    a {!cert}: the canonical form, one labeling that achieves it, the
    automorphism group order (for orbit-stabilizer labeled counting in
    {!Orderly}) and the orbit of each canonical position (for the
    orderly canonical-deletion test). {!canonical_form},
    {!canonical_copy}, {!automorphism_count} and {!orbits} are
    projections of it.

    {b Cost.} Every optimal leaf is visited, so the search costs at
    least [|Aut(g)|] leaves: a star K{_1,k} or k isolated vertices take
    k! leaves. Complete graphs short-circuit to a closed form; no other
    symmetry is pruned. *)

type cert = {
  form : string;
      (** the canonical form: ["<n>:<bits>"], the minimal bitstring in
          column-major order over canonical positions. *)
  perm : int array;
      (** one optimal labeling: [perm.(p)] is the vertex placed at
          canonical position [p]. *)
  aut_count : int;  (** [|Aut(g)|], counted as optimal-leaf labelings. *)
  position_vertices : int array;
      (** [position_vertices.(p)] is the bitmask of vertices that some
          optimal labeling places at position [p] — exactly the
          automorphism orbit of [perm.(p)]. *)
}

val cert : Graph.t -> cert

val canonical_form : Graph.t -> string
(** [(cert g).form]: equal iff the graphs are isomorphic (for graphs
    within the search cap). *)

val canonical_copy : Graph.t -> cert -> Graph.t
(** [canonical_copy g (cert g)] is the graph on canonical positions:
    [p]–[q] is an edge iff [perm.(p)]–[perm.(q)] is an edge of [g]. Its
    adjacency bitstring is [form]. *)

val isomorphic : Graph.t -> Graph.t -> bool
(** Cheap invariants first (n, m, degree sequence, refined color histogram),
    then certificate comparison. *)

(** {1 Automorphisms} *)

val automorphisms_capped : cap:int -> Graph.t -> int array list option
(** The one automorphism enumerator. [automorphisms_capped ~cap g] is
    [Some] of the full group — permutation arrays, [σ.(v)] the image of
    [v], identity included — when its order is at most [cap] ([~cap:max_int]
    for all of it), [None] otherwise (the search aborts on the
    [cap+1]-th element, so pathological groups cost O(cap), not
    O(n!)). *)

val automorphism_count : Graph.t -> int
(** [(cert g).aut_count]. *)

val orbits : Graph.t -> int array
(** [orbits g] labels each vertex with its automorphism-orbit index,
    orbits numbered in the order of their least member; read off
    [(cert g).position_vertices]. *)

val is_vertex_transitive : Graph.t -> bool
(** Single orbit. Note: Cayley graphs are vertex-transitive by construction;
    use this only to spot-check small instances. *)
