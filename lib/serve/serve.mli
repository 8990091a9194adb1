(** Long-lived request/response server for equilibrium workloads.

    [bncg serve] keeps a {!Pool} of worker domains warm and answers the
    newline-delimited JSON protocol of {!Rpc} over Unix domain sockets
    and TCP, so heavy traffic amortizes process and pool startup and —
    through a bounded sharded {!Lru_sharded} cache keyed by canonical
    graph form — never recomputes an equilibrium check it has already
    answered for an isomorphic graph.

    {b Concurrency model.} An event-driven core: one accept thread per
    listening address hands accepted sockets round-robin to a fixed set
    of worker {e domains}, each running a level-triggered {!Poller}
    (epoll on Linux, poll elsewhere) over its own set of non-blocking
    connections. There is no per-connection thread; a worker owns its
    connections exclusively, reads bounded chunks per wakeup (fair
    across connections), and keeps one reusable read frame and write
    buffer per connection. Clients may pipeline any number of request
    lines; responses come back in request order because each worker
    answers a connection's buffered lines synchronously, in arrival
    order. When a connection's pending output exceeds
    [write_high_water], the worker stops consuming its input (read
    interest is paused) until the peer drains — a slow consumer
    backpressures itself without stalling its worker's other
    connections. Equilibrium checks dispatch onto the shared domain
    pool (one region at a time, a mutex serializes launchers); census
    shards run sequentially in deadline-checked slices — the intended
    way to parallelize a census is to fan disjoint [census-shard]
    ranges across requests.

    {b Caching.} [check] results are cached under the exact graph6 text
    and — when the verdict is isomorphism-invariant (equilibrium /
    disconnected) and the graph is within {!Canon.max_search_vertices} —
    under [version + canonical form], so relabeled copies of a known
    equilibrium are cache hits. Violation verdicts name concrete
    vertices, so they are only ever served for the exact same labeled
    graph. The cache stores rendered JSON fragments: hits and misses
    emit byte-identical responses. [info] results are cached under the
    exact text only. The cache is sharded ({!Lru_sharded}): worker
    domains contend per shard, not globally; eviction is per-shard LRU.

    {b Robustness.} A request line over [max_request_bytes] gets a
    [too_large] error (and, when the overflow is detected before the
    newline, the connection closes since framing is lost); malformed
    JSON, bad envelopes, unknown methods, bad graph6 and oversized
    graphs all get structured error replies and never kill the server;
    the per-request deadline is enforced cooperatively (checked before
    heavy dispatch and between census slices). SIGPIPE is ignored; a
    client vanishing mid-reply only closes that connection. {e One
    unbounded step:} the canonical-key search of a [check] (basic game,
    graph within {!Canon.max_search_vertices}, not yet memoized) runs
    before the deadline is first checked and is not interruptible. It
    costs at least [|Aut(g)|] leaves — 10 isolated vertices or K{_1,10}
    take under a second, each added vertex multiplies that by ~11 — so
    a single [check] of K{_1,15} or of 16 isolated vertices holds its
    worker for days. A request deadline does not protect against it.

    {b Telemetry.} [serve.requests], [serve.ok], [serve.errors],
    [serve.connections], [serve.cache_hits]/[serve.cache_misses],
    [serve.bytes_in]/[serve.bytes_out], a [serve.latency_us] histogram,
    a [serve.in_flight] gauge, and event-loop series:
    [serve.evloop.wakeups], a [serve.evloop.ready_batch] histogram
    (ready descriptors per wakeup) and a [serve.pipeline_depth]
    histogram (requests answered per connection pump) — all visible via
    [--stats] and the in-band [stats] method (the latter reports live
    values, including per-shard cache occupancy and hit/miss counts,
    whether or not telemetry is enabled). *)

type address =
  | Unix_sock of string  (** filesystem path *)
  | Tcp of string * int  (** host, port; port 0 binds an ephemeral port *)

val pp_address : Format.formatter -> address -> unit

type config = {
  addresses : address list;
  jobs : int;  (** pool width; 0 = all available cores *)
  workers : int;
      (** event-loop domains; 0 = all available cores. Independent of
          [jobs]: workers multiplex connections, the pool runs kernels *)
  cache_capacity : int;
  cache_shards : int;  (** cache shard count; 0 = default (8) *)
  max_request_bytes : int;
  max_graph_vertices : int;
      (** upper bound on [Graph.n] accepted by [info] and [check] — the
          cooperative-deadline story needs bounded single work items *)
  census_slice : int;
      (** ranks/masks per deadline check inside a census shard *)
  request_timeout : float;  (** seconds; the cooperative deadline *)
  write_high_water : int;
      (** bytes of pending output per connection beyond which the worker
          pauses reading that connection (backpressure) *)
  atlas_dir : string option;
      (** persistent equilibrium atlas directory ({!Atlas}): a
          warm-start tier under the LRU. Cache misses probe it before
          computing; computes append to it, so verdicts survive
          restarts and are shared with census runs. Responses are
          byte-identical with or without it (the atlas stores the same
          rendered fragments the cache does). *)
}

val default_config : config
(** No addresses; jobs 0; workers 0; cache 4096 entries in 8 shards;
    1 MiB requests; graphs to 512 vertices; 4096-rank census slices;
    30 s deadline; 1 MiB write high-water; no atlas. *)

type t

val start : config -> t
(** Bind every address (stale Unix-socket paths are replaced), spawn the
    pool, the worker domains and the accept threads, and return.
    @raise Invalid_argument on an empty address list or nonsensical
    limits; [Unix.Unix_error] if a bind fails. *)

val bound_addresses : t -> address list
(** Addresses actually bound — a [Tcp (_, 0)] request shows its
    resolved ephemeral port. *)

val backend_name : t -> string
(** The readiness backend the event loop runs on: ["epoll"] or
    ["poll"]. *)

val worker_count : t -> int
(** Number of event-loop worker domains actually spawned. *)

val stop : t -> unit
(** Graceful shutdown: join the accept threads (no new connections),
    wake every worker, let each answer the complete request lines it has
    already received and flush pending replies (bounded), join the
    worker domains, shut the pool down (domains joined), unlink
    Unix-socket paths. Idempotent. *)

val run : ?on_ready:(t -> unit) -> config -> unit
(** [start], call [on_ready] with the live server (e.g. to print
    {!bound_addresses}), block until SIGINT or SIGTERM, then [stop].
    For the CLI. *)

(** {1 Client} *)

type client

val connect : ?timeout:float -> address -> client
(** [timeout] (default 30 s) bounds each {!call}'s wait for a reply
    line. *)

val call : client -> string -> string
(** [call c line] sends one request line and returns the matching
    response line (without the newline). Raises [Failure] on timeout or
    a dropped connection. *)

val send_line : client -> string -> unit
(** Write one request line without waiting for the reply — the
    pipelining half of {!call}. Pair with {!recv_line}. *)

val recv_line : client -> string
(** Read the next response line (without the newline), waiting up to the
    client timeout. Responses arrive in request order, so [n] calls of
    {!send_line} followed by [n] calls of [recv_line] match up 1:1. *)

val close_client : client -> unit

val with_client : ?timeout:float -> address -> (client -> 'a) -> 'a
