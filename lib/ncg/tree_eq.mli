(** Tree specializations of the equilibrium analysis (Section 2).

    Theorem 1: sum-equilibrium trees are exactly the stars. Theorem 4:
    max-equilibrium trees are the stars and the double stars with at least
    two leaves per root. These routines make the proofs constructive — for
    a non-equilibrium tree they produce the very swap the proof exhibits
    and verify that it improves — which lets the census sweep millions of
    trees without running the generic O(n²·m) checker on each. *)

val is_star : Graph.t -> bool
(** Some vertex adjacent to all others, in a tree shape (n-1 edges).
    K1 and K2 count as stars. *)

val is_double_star : Graph.t -> bool
(** Two adjacent roots, every other vertex a leaf on one of them.
    Stars do not count (each root needs at least one leaf). *)

val double_star_arms : Graph.t -> (int * int) option
(** Leaf counts of the two roots if the tree is a double star. *)

val theorem1_witness : Graph.t -> (Swap.move * int) option
(** For a tree of diameter >= 3, the improving sum-swap built in the proof
    of Theorem 1 (one endpoint of a diametral-path prefix re-hangs onto the
    far side), verified to have strictly negative delta before returning.
    [None] for trees of diameter <= 2.
    @raise Invalid_argument on non-trees. *)

val theorem4_witness : Graph.t -> (Swap.move * int) option
(** For a tree of diameter >= 4, an improving max-swap in the spirit of
    Lemma 2 (a diametral endpoint re-hangs onto a center), verified before
    returning. [None] for trees of diameter <= 3 — which are not all
    equilibria; combine with {!max_eq_tree}.
    @raise Invalid_argument on non-trees. *)

val sum_eq_tree : Graph.t -> bool
(** Exact sum-equilibrium test for trees: star check plus a defensive
    generic verification for small stars. Equivalent to
    [Equilibrium.is_equilibrium Game.Sum] on trees, but O(n) in the common
    case. *)

val max_eq_tree : Graph.t -> bool
(** Exact max-equilibrium test for trees: diameter <= 3 shape analysis
    (star, or double star with >= 2 leaves per root), matching
    [Equilibrium.is_equilibrium Game.Max] on trees. *)
