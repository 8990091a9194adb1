(** First-class game registry.

    The one game type of the library: the CLI, the serving wire
    protocol, atlas key namespaces, telemetry labels, the censuses,
    dynamics and the hunter all the way down to the cost kernel
    ({!Usage_cost}, {!Swap_eval}) dispatch on a {!t}. The two basic games
    of the paper
    keep their exact historical spellings ([sum], [max]) so existing
    output, atlas keys, and journal headers stay byte-identical; the
    α-parameterized creation game of Fabrikant et al. rides behind
    [alpha:<α>] with the Buy/Sell/Swap_owned local move set implemented
    by {!Alpha_game}. *)

type t =
  | Sum  (** Swap game, usage cost = distance sum (paper, Section 2). *)
  | Max  (** Swap game, usage cost = local diameter (paper, Section 3). *)
  | Alpha of float
      (** α-parameterized creation game: cost α·owned + distance sum,
          deviations Buy/Sell/Swap_owned. The payload is the (finite,
          non-negative) α. *)

val equal : t -> t -> bool

val is_basic : t -> bool
(** [true] for the two swap games of the paper ([Sum], [Max]); [false]
    for [Alpha _]. *)

val to_string : t -> string
(** Canonical string form: ["sum"], ["max"], or ["alpha:1.5"]. The α is
    printed in shortest round-trip form, so
    [of_string (to_string g) = Ok g] for every [g]. The [Sum]/[Max]
    spellings are the historical ones, so atlas keys, journal headers,
    and wire encodings built from them are byte-identical to older
    releases. *)

val of_string : string -> (t, string) result
(** Total parser of the canonical forms, shared by the CLI [--game]
    flag, the RPC ["game"] envelope field, and atlas key namespaces.
    Rejects non-finite or negative α. The error string names the
    offending input and the accepted grammar. *)

val pp : Format.formatter -> t -> unit

val move_set : t -> string
(** Human-readable deviation move set, for docs and telemetry:
    ["swap"], ["swap+delete"], or ["buy/sell/swap-owned"]. *)
