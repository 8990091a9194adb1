(* serve-mix: an in-process server (Unix socket, 1 worker domain, 1 pool
   job) driven by two closed-loop connections from one polling client
   thread, so the workload keeps both cores busy.
   Each connection sends its next request only after the previous reply
   arrived. The seeded request stream mixes five classes of [check]:

     fresh         new connected G(n,m), 17 <= n <= 48: exact-key miss,
                   check exits at the first violating agent
     fresh-small   new connected G(n,m), 8 <= n <= 16: also pays
                   Canon.canonical_form for the canonical cache key
     repeat        a 512-graph working set (well inside the 4096-entry
                   cache), warmed during set-up: exact-key hits
     relabeled-eq  random relabelings of stars on 7..9 vertices, the
                   Petersen graph and the 3x3 torus (sum equilibria):
                   canonical-cache hits that pay canon per new text
     large-eq      relabeled stars (sum) and double stars (max) with
                   24 <= n <= 64: misses that scan every agent

   Every reply must be byte-equal to the reply computed in-process from
   Equilibrium.check and the Rpc renderers. *)

open Pbcore

type cls = Fresh | Fresh_small | Repeat | Relabeled | Large

let class_name = function
  | Fresh -> "fresh"
  | Fresh_small -> "fresh-small"
  | Repeat -> "repeat"
  | Relabeled -> "relabeled-eq"
  | Large -> "large-eq"

(* shares, in per-mille; chosen so that p50 falls inside [repeat] and p99
   inside the Petersen part of [relabeled-eq] (see README.md) *)
let shares = [ (Repeat, 540); (Fresh, 130); (Fresh_small, 90); (Relabeled, 90); (Large, 150) ]

let working_set_size = 512

type req = { cls : cls; game : Game.t; g6 : string }

let relabel rng g =
  let n = Graph.n g in
  let perm = Array.init n Fun.id in
  Prng.shuffle_in_place rng perm;
  Graph.of_edges n (List.map (fun (u, v) -> (perm.(u), perm.(v))) (Graph.edges g))

let gnm rng ~lo ~hi =
  let n = Prng.int_in_range rng ~lo ~hi in
  let m = Prng.int_in_range rng ~lo:n ~hi:(min (2 * n) (n * (n - 1) / 2)) in
  Random_graphs.connected_gnm rng n m

let coin_game rng = if Prng.bool rng then Game.Sum else Game.Max

let symmetric =
  [|
    Generators.star 7;
    Generators.star 8;
    Generators.star 9;
    Generators.petersen ();
    Generators.torus_grid 3 3;
  |]

let relabeled_weights = [| 1; 1; 1; 6; 1 |]

let pick_weighted rng weights =
  let total = Array.fold_left ( + ) 0 weights in
  let r = ref (Prng.int rng total) and i = ref 0 in
  while !r >= weights.(!i) do
    r := !r - weights.(!i);
    incr i
  done;
  !i

let fresh rng cls ~lo ~hi =
  let game = coin_game rng in
  { cls; game; g6 = Graph6.encode (gnm rng ~lo ~hi) }

let working_set seed =
  let rng = Prng.substream seed 50 in
  Array.init working_set_size (fun _ -> fresh rng Repeat ~lo:17 ~hi:48)

let next_request rng ws =
  let share_weights = Array.of_list (List.map snd shares) in
  match fst (List.nth shares (pick_weighted rng share_weights)) with
  | Fresh -> fresh rng Fresh ~lo:17 ~hi:48
  | Fresh_small -> fresh rng Fresh_small ~lo:8 ~hi:16
  | Repeat -> ws.(Prng.int rng (Array.length ws))
  | Relabeled ->
    let g = symmetric.(pick_weighted rng relabeled_weights) in
    { cls = Relabeled; game = Game.Sum; g6 = Graph6.encode (relabel rng g) }
  | Large ->
    let n = Prng.int_in_range rng ~lo:24 ~hi:64 in
    let game, g =
      if Prng.bool rng then (Game.Sum, Generators.star n)
      else
        let a = Prng.int_in_range rng ~lo:1 ~hi:(n - 3) in
        (Game.Max, Generators.double_star a (n - 2 - a))
    in
    { cls = Large; game; g6 = Graph6.encode (relabel rng g) }

let request_line id r =
  Rpc.render_request ~id:(Jsonx.Int id) ~meth:"check"
    (Jsonx.Obj [ ("game", Jsonx.Str (Game.to_string r.game)); ("graph6", Jsonx.Str r.g6) ])

(* --- request log ----------------------------------------------------------- *)

(* Samples are kept unboxed (about 40 bytes each), in arrays filled in
   advance for the most requests a window can expect, so that the
   client's own bookkeeping stays small and does not vary with
   throughput in [peak_rss_mb]; the requests themselves are regenerated
   from the seed for verification. *)
type log = {
  mutable len : int;
  mutable ids : int array;
  mutable conns : Bytes.t;
  mutable sent : Float.Array.t;
  mutable lat : Float.Array.t;
  mutable digests : Bytes.t;  (* 16 bytes of MD5 per reply *)
}

let new_log cap =
  {
    len = 0;
    ids = Array.make cap 0;
    conns = Bytes.make cap '\000';
    sent = Float.Array.make cap 0.;
    lat = Float.Array.make cap 0.;
    digests = Bytes.make (16 * cap) '\000';
  }

(* capacity for a window of [seconds]: 10^4 requests per second is
   above any rate measured (about 6600/s at best) *)
let window_log seconds = new_log (max 1024 (int_of_float (seconds *. 10_000.)))

let push log ~id ~conn ~sent ~lat ~reply =
  let cap = Array.length log.ids in
  if log.len = cap then begin
    let grow_f a = Float.Array.init (2 * cap) (fun i -> if i < cap then Float.Array.get a i else 0.) in
    log.ids <- Array.init (2 * cap) (fun i -> if i < cap then log.ids.(i) else 0);
    log.conns <- Bytes.extend log.conns 0 cap;
    log.sent <- grow_f log.sent;
    log.lat <- grow_f log.lat;
    log.digests <- Bytes.extend log.digests 0 (16 * cap)
  end;
  let i = log.len in
  log.ids.(i) <- id;
  Bytes.set log.conns i (Char.chr conn);
  Float.Array.set log.sent i sent;
  Float.Array.set log.lat i lat;
  Bytes.blit_string (Digest.string reply) 0 log.digests (16 * i) 16;
  log.len <- i + 1

let latency_list log = List.init log.len (Float.Array.get log.lat)

(* --- server and connections ---------------------------------------------- *)

type conn = {
  index : int;
  fd : Unix.file_descr;
  frame : Lineframe.t;
  rng : Prng.t;
  mutable next_id : int;  (* connection k sends ids k, k + 2, k + 4, ... *)
  mutable inflight : (int * float) option;
}

let sock_dir = ".perfbench"

let sock_path () = Filename.concat sock_dir (Printf.sprintf "serve-%d.sock" (Unix.getpid ()))

let start_server () =
  if not (Sys.file_exists sock_dir) then Sys.mkdir sock_dir 0o755;
  Serve.start
    {
      Serve.default_config with
      Serve.addresses = [ Serve.Unix_sock (sock_path ()) ];
      jobs = 1;
      workers = 1;
    }

let stream_rng seed index = Prng.substream seed (100 + index)

let connect seed index =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX (sock_path ()));
  {
    index;
    fd;
    frame = Lineframe.create ~max_line:(1 lsl 20) ();
    rng = stream_rng seed index;
    next_id = index;
    inflight = None;
  }

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let rec go off =
    if off < Bytes.length b then go (off + Unix.write fd b off (Bytes.length b - off))
  in
  go 0

let buf = Bytes.create 65536

(* Reads what is available on [c] and logs the reply once it is framed;
   true when the connection is ready for its next request. *)
let receive log c =
  let k = Unix.read c.fd buf 0 (Bytes.length buf) in
  if k = 0 then failwith "server closed the connection";
  Lineframe.feed c.frame buf 0 k;
  match Lineframe.next c.frame with
  | `Line reply -> (
    match c.inflight with
    | Some (id, sent) ->
      c.inflight <- None;
      push log ~id ~conn:c.index ~sent ~lat:(now () -. sent) ~reply;
      true
    | None -> failwith "unsolicited reply")
  | `More -> false
  | `Overflow -> failwith "reply framing lost"

(* Closed loop over [conns]: each connection sends [next c] as soon as its
   previous reply arrived, and stops when [next] returns [None]. *)
let closed_loop log conns ~next =
  let live = ref conns in
  let send_next c =
    match next c with
    | None -> live := List.filter (fun x -> x != c) !live
    | Some r ->
      let id = c.next_id in
      c.next_id <- id + 2;
      let line = request_line id r ^ "\n" in
      c.inflight <- Some (id, now ());
      write_all c.fd line
  in
  List.iter send_next conns;
  while !live <> [] do
    let fds = List.map (fun c -> c.fd) !live in
    (* the client polls instead of sleeping in select: a reply is then
       read as soon as it is written, and the next request is queued
       before the server finishes the other connection's, so neither
       core sleeps and waits to be woken between requests *)
    let deadline = now () +. 5.0 in
    let rec poll () =
      match Unix.select fds [] [] 0.0 with
      | [], _, _ -> if now () > deadline then [] else poll ()
      | r, _, _ -> r
    in
    let ready = poll () in
    if ready = [] then failwith "no reply within 5 s";
    List.iter (fun c -> if List.mem c.fd ready && receive log c then send_next c) !live
  done

let timed_stream ws ~until c = if now () < until then Some (next_request c.rng ws) else None

(* Set-up: start the server, open both connections, and send the working
   set once through connection 0 so that [repeat] requests hit. *)
let setup seed ws warm_log =
  let srv = start_server () in
  let conns = [ connect seed 0; connect seed 1 ] in
  let k = ref 0 in
  closed_loop warm_log [ List.hd conns ] ~next:(fun _ ->
      if !k >= Array.length ws then None
      else begin
        incr k;
        Some ws.(!k - 1)
      end);
  (srv, conns)

let close_all srv conns =
  List.iter (fun c -> Unix.close c.fd) conns;
  Serve.stop srv;
  try Sys.rmdir sock_dir with Sys_error _ -> ()

(* --- correctness ----------------------------------------------------------- *)

type sample = { id : int; req : req; sent : float; latency : float }

(* The logged samples with their requests regenerated: set-up logs
   replay the working set on connection 0; stream logs continue each
   connection's seeded stream, in log order. *)
let regenerate seed ws ~setup_logs ~stream_logs =
  let of_log log req_of =
    List.init log.len (fun i ->
        let req = req_of (Char.code (Bytes.get log.conns i)) in
        (log, i, { id = log.ids.(i); req; sent = Float.Array.get log.sent i; latency = Float.Array.get log.lat i }))
  in
  let warm =
    List.map
      (fun log ->
        let k = ref (-1) in
        of_log log (fun _ ->
            incr k;
            ws.(!k)))
      setup_logs
  in
  let rngs = [| stream_rng seed 0; stream_rng seed 1 |] in
  let streams = List.map (fun log -> of_log log (fun c -> next_request rngs.(c) ws)) stream_logs in
  (warm, streams)

let verify t entries =
  let memo = Hashtbl.create 4096 in
  List.iter
    (fun (log, i, s) ->
      let key = (Game.to_string s.req.game, s.req.g6) in
      let result =
        match Hashtbl.find_opt memo key with
        | Some r -> r
        | None ->
          let g = Graph6.decode s.req.g6 in
          let r = Jsonx.to_string (Rpc.check_result s.req.game (Equilibrium.check s.req.game g) g) in
          Hashtbl.add memo key r;
          r
      in
      let expected = Digest.string (Rpc.render_ok ~id:(Jsonx.Int s.id) ~result) in
      record t [ ("reply", Bytes.sub_string log.digests (16 * i) 16 = expected) ])
    entries

let samples entries = List.map (fun (_, _, s) -> s) entries

(* --- end-to-end --------------------------------------------------------- *)

let block = 1000

(* median time to complete [block] consecutive replies *)
let block_wall t0 log =
  let done_at = sorted (List.init log.len (fun i -> Float.Array.get log.sent i +. Float.Array.get log.lat i)) in
  let n = Array.length done_at in
  if n < block then float_of_int block *. (done_at.(n - 1) -. t0) /. float_of_int n
  else
    median
      (List.init (n / block) (fun k ->
           done_at.(((k + 1) * block) - 1) -. if k = 0 then t0 else done_at.((k * block) - 1)))

let setups = 7

(* [setups] timed set-ups, each a fresh server; the last one is kept.
   The set-up time is their median. *)
let repeated_setup seed ws =
  let times = ref [] and logs = ref [] and kept = ref None in
  for i = 1 to setups do
    let log = new_log (Array.length ws) in
    let (srv, conns), dt = time (fun () -> setup seed ws log) in
    times := dt :: !times;
    logs := log :: !logs;
    if i < setups then close_all srv conns else kept := Some (srv, conns)
  done;
  let srv, conns = Option.get !kept in
  (srv, conns, median !times, List.rev !logs)

let latencies samples = List.map (fun s -> s.latency) samples

(* The class of the requests around percentile [p]: the majority class
   among the 1% of samples nearest its rank, and that class's share. *)
let class_at samples p =
  let a = Array.of_list samples in
  Array.sort (fun x y -> compare x.latency y.latency) a;
  let n = Array.length a in
  let k = rank_of n p - 1 and w = max 1 (n / 200) in
  let lo = max 0 (k - w) and hi = min (n - 1) (k + w) in
  let counts = List.map (fun (c, _) -> (c, ref 0)) shares in
  for i = lo to hi do
    incr (List.assq a.(i).req.cls counts)
  done;
  let c, k =
    List.fold_left (fun (bc, bk) (c, k) -> if !k > bk then (c, !k) else (bc, bk)) (Fresh, -1) counts
  in
  Printf.sprintf "p%g in %s (%.0f%% of its neighbours)" p (class_name c)
    (100. *. float_of_int k /. float_of_int (hi - lo + 1))

let run seed ~seconds =
  let t = tally () in
  let ws = working_set seed in
  let srv, conns, setup_s, setup_logs = repeated_setup seed ws in
  let log = window_log seconds in
  let t0 = now () in
  closed_loop log conns ~next:(timed_stream ws ~until:(t0 +. seconds));
  let elapsed = now () -. t0 in
  let rss = peak_rss_mb () in
  close_all srv conns;
  let warm, streams = regenerate seed ws ~setup_logs ~stream_logs:[ log ] in
  List.iter (verify t) (warm @ streams);
  let samples = samples (List.concat streams) in
  let lat = latency_list log in
  let tail_p, tail = tail_or_median lat in
  ( t,
    [
      ("setup_s", setup_s);
      ("wall_s", block_wall t0 log);
      ("req_per_s", float_of_int log.len /. elapsed);
      ("latency_p50_ms", 1e3 *. median lat);
      ("latency_p99_ms", 1e3 *. tail);
      ("peak_rss_mb", rss);
    ],
    Printf.sprintf "%d requests over %.2f s; latency_p99_ms is p%g; %s; %s" log.len elapsed tail_p
      (class_at samples 50.) (class_at samples tail_p) )

(* --- traced --------------------------------------------------------------- *)

type replay = {
  cache : (string, string) Hashtbl.t;
  memo : (string, string) Hashtbl.t;
  frame : Lineframe.t;
  mutable requests : int;
  mutable t_frame : float;
  mutable t_parse : float;
  mutable t_canon : float;
  mutable canon_calls : int;
  mutable canon_max : float;
  mutable t_check : float;
  mutable checks : int;
  mutable violations : int;
  mutable t_render : float;
}

let fresh_replay () =
  {
    cache = Hashtbl.create 4096;
    memo = Hashtbl.create 4096;
    frame = Lineframe.create ~max_line:(1 lsl 20) ();
    requests = 0;
    t_frame = 0.;
    t_parse = 0.;
    t_canon = 0.;
    canon_calls = 0;
    canon_max = 0.;
    t_check = 0.;
    checks = 0;
    violations = 0;
    t_render = 0.;
  }

(* One request line through the server's layers, called from outside in
   the order the server calls them: framing, parse, canonical key (memo
   by graph6 text), cache lookup under the exact then the canonical key,
   check and fragment render on a miss, envelope render. The cache is an
   unbounded table; the working set never evicts from the server's. *)
let replay_one r s =
  let line = Bytes.of_string (request_line s.id s.req ^ "\n") in
  let t0 = now () in
  Lineframe.feed r.frame line 0 (Bytes.length line);
  let l = match Lineframe.next r.frame with `Line l -> l | _ -> failwith "replay framing" in
  let t1 = now () in
  match Rpc.parse_request l with
  | Ok (id, Rpc.Check { game; g6; graph }) ->
    let t2 = now () in
    let gname = Game.to_string game in
    let canon_key =
      if Game.is_basic game && Graph.n graph <= Canon.max_search_vertices then begin
        let cf =
          match Hashtbl.find_opt r.memo g6 with
          | Some cf -> cf
          | None ->
            let cf, dt = time (fun () -> Canon.canonical_form graph) in
            r.t_canon <- r.t_canon +. dt;
            r.canon_calls <- r.canon_calls + 1;
            r.canon_max <- max r.canon_max dt;
            Hashtbl.add r.memo g6 cf;
            cf
        in
        Some (Printf.sprintf "check:%s:canon:%s" gname cf)
      end
      else None
    in
    let exact_key = Printf.sprintf "check:%s:%s" gname g6 in
    let cached =
      match Hashtbl.find_opt r.cache exact_key with
      | Some _ as c -> c
      | None -> Option.bind canon_key (Hashtbl.find_opt r.cache)
    in
    let result =
      match cached with
      | Some c -> c
      | None ->
        let verdict, dt = time (fun () -> Equilibrium.check game graph) in
        r.t_check <- r.t_check +. dt;
        r.checks <- r.checks + 1;
        (match verdict with Equilibrium.Violation _ -> r.violations <- r.violations + 1 | _ -> ());
        let res, dt = time (fun () -> Jsonx.to_string (Rpc.check_result game verdict graph)) in
        r.t_render <- r.t_render +. dt;
        Hashtbl.replace r.cache exact_key res;
        if Rpc.verdict_is_invariant verdict then
          Option.iter (fun k -> Hashtbl.replace r.cache k res) canon_key;
        res
    in
    let _, dt = time (fun () -> Rpc.render_ok ~id ~result) in
    r.t_render <- r.t_render +. dt;
    r.t_frame <- r.t_frame +. (t1 -. t0);
    r.t_parse <- r.t_parse +. (t2 -. t1);
    r.requests <- r.requests + 1
  | _ -> failwith "replay: not a check request"

let by_send samples = List.sort (fun a b -> compare a.sent b.sent) samples

let mean xs = List.fold_left ( +. ) 0. xs /. float_of_int (max 1 (List.length xs))

(* Traced: after one set-up, three windows of [seconds / 3]: a warm-up
   (the first window after set-up pays first-time canonical forms and
   heap growth), an untraced one and a traced one; then a replay of the
   traced window's requests through the public layer functions. *)
let traced seed ~seconds =
  let t = tally () in
  let ws = working_set seed in
  let setup_log = new_log (Array.length ws) in
  let srv, conns = setup seed ws setup_log in
  let window () =
    let log = window_log (seconds /. 3.) in
    closed_loop log conns ~next:(timed_stream ws ~until:(now () +. (seconds /. 3.)));
    log
  in
  let w1 = window () in
  let w2 = window () in
  Telemetry.reset ();
  Telemetry.set_enabled true;
  let t0 = now () in
  let w3 = window () in
  let wall = now () -. t0 in
  Telemetry.set_enabled false;
  let hist = Telemetry.histogram "serve.latency_us" in
  let server_us =
    float_of_int (Telemetry.histogram_sum hist)
    /. float_of_int (max 1 (Telemetry.histogram_count hist))
  in
  let counter name = float_of_int (Telemetry.counter_value (Telemetry.counter name)) in
  let hits = counter "serve.cache_hits" and misses = counter "serve.cache_misses" in
  let wakeups = counter "serve.evloop.wakeups" in
  close_all srv conns;
  let warm, streams =
    regenerate seed ws ~setup_logs:[ setup_log ] ~stream_logs:[ w1; w2; w3 ]
  in
  List.iter (verify t) (warm @ streams);
  let prefix, untraced, traced =
    match List.map samples (warm @ streams) with
    | [ w; a; b; c ] -> (w @ a @ b, b, c)
    | _ -> assert false
  in
  (* the untimed prefix brings the replay's cache to the server's state
     at the start of the traced window *)
  let r0 = fresh_replay () in
  List.iter (replay_one r0) (by_send prefix);
  let r = { (fresh_replay ()) with cache = r0.cache; memo = r0.memo } in
  List.iter (replay_one r) (by_send traced);
  let per_req x = 1e6 *. x /. float_of_int (max 1 r.requests) in
  let client_us = 1e6 *. mean (latencies traced) in
  let client_total = mean (latencies traced) *. float_of_int (List.length traced) in
  let share x = if client_total > 0. then x /. client_total else 0. in
  let by_class c = List.filter (fun s -> s.req.cls = c) traced in
  let metrics =
    [
      ("lineframe.us", per_req r.t_frame);
      ("rpc.parse_us", per_req r.t_parse);
      ("rpc.render_us", per_req r.t_render);
      ("canon.us", 1e6 *. r.t_canon /. float_of_int (max 1 r.canon_calls));
      ("canon.max_ms", 1e3 *. r.canon_max);
      ("equilibrium.check_s", r.t_check);
      ("equilibrium.check_calls", float_of_int r.checks);
      ("equilibrium.early_exit_ratio", float_of_int r.violations /. float_of_int (max 1 r.checks));
      ("serve.server_us_mean", server_us);
      ("serve.transport_us", client_us -. server_us);
      ( "serve.unattributed_us",
        server_us -. per_req (r.t_parse +. r.t_canon +. r.t_check +. r.t_render) );
      ("serve.trace_overhead_us", client_us -. (1e6 *. mean (latencies untraced)));
      ("serve.cache_hit_ratio", hits /. max 1. (hits +. misses));
      ("serve.evloop.wakeups", wakeups);
      ("serve.share.transport", (client_us -. server_us) /. client_us);
      ("serve.share.canon", share r.t_canon);
      ("serve.share.check", share r.t_check);
    ]
    @ List.map
        (fun (c, _) -> ("serve.lat_p50_ms." ^ class_name c, 1e3 *. median (latencies (by_class c))))
        shares
  in
  (t, wall, metrics)
