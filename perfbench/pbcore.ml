(* Measurement plumbing shared by the workloads and the self-tests: the
   metric catalogue (the source of truth BENCHMARK.json is checked
   against), the percentile rule, correctness-gate accounting, the
   machine fingerprint and the one-line result that ends every run. *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* --- metric catalogue ----------------------------------------------------- *)

(* why each workload was chosen, with its measured layer shares (one
   core of a 2-core container; see README.md) *)
let workloads =
  [
    ( "census-sum",
      "Orderly census, game sum, n=7, one domain. Representative labelling is ~89% of wall, \
       generation + Canon.cert ~8%, equilibrium check ~3%." );
    ( "census-max",
      "Orderly census, game max, n=8, one domain. Generation + Canon.cert is ~75% of wall, \
       representative labelling ~21% (24 classes), equilibrium check ~4%." );
    ( "scale-ba",
      "Scale engine at n=10^5: rounds of 32 probes (budget 16, game sum), each on its own seeded \
       BA graph (m=2). BFS kernels do the work; counts x per-call cost explain ~40-45%." );
    ( "serve-mix",
      "In-process server, 2 closed-loop connections, 5 check classes, ~66% cache hits. Client \
       latency: transport ~52%, canon ~15%, check ~11-14%." );
  ]

let run_seconds = 20

let command = [ "bash"; "perfbench/run.sh" ]

type better = Lower | Higher

type spec = { name : string; unit : string; better : better; bound : float option }

let e2e name unit better bound = { name; unit; better; bound = Some bound }

let layer name unit better = { name; unit; better; bound = None }

(* Bounds: on a shared 2-core container a workload's run-to-run spread
   (IQR / median over seeds) reaches 8-15% for times from machine load
   alone (census work is identical in every run), so times get the
   largest bound allowed, 0.25.
   error_rate is not in this list: it is 0 on every correct run, so a
   bound relative to its median is undefined. It is carried by the
   [attempted]/[failed] fields of the result line instead. *)
let end_to_end =
  [
    e2e "wall_s" "s" Lower 0.25;
    e2e "setup_s" "s" Lower 0.25;
    e2e "req_per_s" "1/s" Higher 0.25;
    e2e "latency_p50_ms" "ms" Lower 0.25;
    e2e "latency_p99_ms" "ms" Lower 0.25;
    e2e "peak_rss_mb" "MB" Lower 0.15;
  ]

let serve_classes = [ "fresh"; "fresh-small"; "repeat"; "relabeled-eq"; "large-eq" ]

(* the canon.symmetric probe: starN is the star on N vertices (K1,N-1) *)
let symmetric_probe_names =
  [ "star6"; "star7"; "star8"; "star9"; "star10"; "star11"; "c12"; "petersen"; "torus3x3" ]

let per_layer =
  [
    layer "orderly.gen_cert_s" "s" Lower;
    layer "orderly.representative_s" "s" Lower;
    layer "orderly.representative_calls" "count" Lower;
    layer "orderly.accept_ratio" "ratio" Higher;
    layer "equilibrium.check_s" "s" Lower;
    layer "equilibrium.check_calls" "count" Lower;
    layer "equilibrium.early_exit_ratio" "ratio" Higher;
    layer "census.unattributed_s" "s" Lower;
    layer "census.trace_overhead_s" "s" Lower;
    layer "scale_gen.ba_s" "s" Lower;
    layer "scale.run_s" "s" Lower;
    layer "flexcsr.bfs_ms" "ms" Lower;
    layer "bitbfs.batch_ms" "ms" Lower;
    layer "scale.dynamics.probes" "count" Higher;
    layer "scale.dynamics.bfs_runs" "count" Lower;
    layer "scale.dynamics.exact_evals" "count" Lower;
    layer "scale.dynamics.certified_skips" "count" Higher;
    layer "scale.dynamics.moves" "count" Higher;
    layer "scale.bitbfs.runs" "count" Lower;
    layer "scale.bitbfs.words" "count" Lower;
    layer "scale.skip_ratio" "ratio" Higher;
    layer "scale.kernel_s_computed" "s" Lower;
    layer "scale.unattributed_s" "s" Lower;
    layer "scale.trace_overhead_s" "s" Lower;
    layer "lineframe.us" "us" Lower;
    layer "rpc.parse_us" "us" Lower;
    layer "rpc.render_us" "us" Lower;
    layer "canon.us" "us" Lower;
    layer "canon.max_ms" "ms" Lower;
    layer "serve.server_us_mean" "us" Lower;
    layer "serve.transport_us" "us" Lower;
    layer "serve.unattributed_us" "us" Lower;
    layer "serve.trace_overhead_us" "us" Lower;
    layer "serve.cache_hit_ratio" "ratio" Higher;
    layer "serve.evloop.wakeups" "count" Lower;
    layer "serve.share.transport" "ratio" Lower;
    layer "serve.share.canon" "ratio" Lower;
    layer "serve.share.check" "ratio" Lower;
  ]
  @ List.map (fun c -> layer ("serve.lat_p50_ms." ^ c) "ms" Lower) serve_classes
  @ List.map (fun s -> layer ("canon.symmetric." ^ s ^ "_ms") "ms" Lower)
      symmetric_probe_names

(* --- names --------------------------------------------------------------- *)

let is_name_char c =
  match c with
  | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
  | _ -> false

(* [A-Za-z0-9_.-]+, at most 64 characters, starting with a letter or digit *)
let valid_name s =
  let len = String.length s in
  len >= 1 && len <= 64
  && (match s.[0] with 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' -> true | _ -> false)
  && String.for_all is_name_char s

let valid_unit s =
  let len = String.length s in
  len >= 1 && len <= 16
  && String.for_all
       (fun c ->
         match c with
         | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '/' | '%' | '.' | '-' -> true
         | _ -> false)
       s

(* --- order statistics ---------------------------------------------------- *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs =
  match sorted xs with
  | [||] -> nan
  | a ->
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest-rank percentile of a sorted array: the smallest value with at
   least p% of the samples at or below it. *)
let rank_of n p = max 1 (int_of_float (ceil (p /. 100. *. float_of_int n -. 1e-9)))

let percentile a p = a.(rank_of (Array.length a) p - 1)

let ladder = [ 99.9; 99.; 95.; 90.; 75.; 50. ]

(* The percentile rule: the highest percentile of [ladder] that leaves at
   least ten samples strictly beyond its rank. [None] below 20 samples,
   where not even the median qualifies. *)
let tail_percentile xs =
  let a = sorted xs in
  let n = Array.length a in
  List.find_map
    (fun p -> if n - rank_of n p >= 10 then Some (p, percentile a p) else None)
    ladder

(* [latency_p99_ms] is p99 where the rule supports it; with fewer samples
   it falls back to the highest supported percentile, then the median.
   The report names which percentile a value is. *)
let tail_or_median xs =
  match tail_percentile xs with
  | Some (p, _) when p >= 99. -> (99., percentile (sorted xs) 99.)
  | Some (p, v) -> (p, v)
  | None -> (50., median xs)

(* --- correctness gates --------------------------------------------------- *)

(* One attempted operation: it fails when any of its named checks fails.
   Checks run outside the timed regions. *)
type tally = { mutable attempted : int; mutable failed : int; mutable notes : string list }

let tally () = { attempted = 0; failed = 0; notes = [] }

let record t checks =
  t.attempted <- t.attempted + 1;
  let bad = List.filter_map (fun (what, ok) -> if ok then None else Some what) checks in
  if bad <> [] then begin
    t.failed <- t.failed + 1;
    if List.length t.notes < 8 then
      t.notes <- String.concat ", " bad :: t.notes
  end

let error_rate t =
  if t.attempted = 0 then 1. else float_of_int t.failed /. float_of_int t.attempted

let digest_lines lines = Digest.to_hex (Digest.string (String.concat "\n" lines))

(* --- fingerprint ----------------------------------------------------------- *)

type fingerprint = {
  nproc : int;
  ocaml : string;
  commit : string;
  source_digest : string;
  workload : string;
  seed : int;
  trace : bool;
}

let read_file path =
  match open_in_bin path with
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> Some (In_channel.input_all ic))
  | exception Sys_error _ -> None

(* VmHWM: the process's resident-set high-water mark *)
let peak_rss_mb () =
  match read_file "/proc/self/status" with
  | None -> nan
  | Some s ->
    List.find_map
      (fun l ->
        match String.split_on_char ':' l with
        | [ "VmHWM"; v ] -> Scanf.sscanf_opt (String.trim v) "%d kB" (fun kb -> float_of_int kb /. 1024.)
        | _ -> None)
      (String.split_on_char '\n' s)
    |> Option.value ~default:nan

(* git HEAD read straight from .git (no subprocess); "none" outside a
   repository, where the source digest still identifies the program *)
let git_commit () =
  match read_file ".git/HEAD" with
  | None -> "none"
  | Some head -> (
    let head = String.trim head in
    match String.index_opt head ' ' with
    | Some i when String.sub head 0 i = "ref:" ->
      let ref_ = String.trim (String.sub head (i + 1) (String.length head - i - 1)) in
      Option.value ~default:"none" (Option.map String.trim (read_file (".git/" ^ ref_)))
    | _ -> head)

(* digest of every library source file, in sorted path order *)
let source_digest root =
  let rec walk dir acc =
    match Sys.readdir dir with
    | entries ->
      Array.sort compare entries;
      Array.fold_left
        (fun acc e ->
          let p = Filename.concat dir e in
          if Sys.is_directory p then walk p acc
          else if Filename.check_suffix e ".ml" || Filename.check_suffix e ".mli"
                  || Filename.check_suffix e ".c"
          then p :: acc
          else acc)
        acc entries
    | exception Sys_error _ -> acc
  in
  let files = List.rev (walk root []) in
  if files = [] then "none"
  else
    digest_lines
      (List.map
         (fun p -> p ^ ":" ^ Digest.to_hex (Digest.string (Option.get (read_file p))))
         files)

let fingerprint ~workload ~seed ~trace =
  {
    nproc = Domain.recommended_domain_count ();
    ocaml = Sys.ocaml_version;
    commit = git_commit ();
    source_digest = source_digest "lib";
    workload;
    seed;
    trace;
  }

let fingerprint_to_json f =
  Jsonx.Obj
    [
      ("nproc", Jsonx.Int f.nproc);
      ("ocaml", Jsonx.Str f.ocaml);
      ("commit", Jsonx.Str f.commit);
      ("source_digest", Jsonx.Str f.source_digest);
      ("workload", Jsonx.Str f.workload);
      ("seed", Jsonx.Int f.seed);
      ("trace", Jsonx.Bool f.trace);
    ]

let ( let* ) = Result.bind

let field j k conv =
  match Option.bind (Jsonx.member k j) conv with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing or ill-typed member %S" k)

let fingerprint_of_json j =
  let* nproc = field j "nproc" Jsonx.to_int in
  let* ocaml = field j "ocaml" Jsonx.to_str in
  let* commit = field j "commit" Jsonx.to_str in
  let* source_digest = field j "source_digest" Jsonx.to_str in
  let* workload = field j "workload" Jsonx.to_str in
  let* seed = field j "seed" Jsonx.to_int in
  let* trace = field j "trace" Jsonx.to_bool in
  Ok { nproc; ocaml; commit; source_digest; workload; seed; trace }

(* Fields that make two results incomparable. Commit, source and seed
   may differ between the sides of a comparison; they are printed. *)
let fingerprint_mismatches a b =
  List.filter_map
    (fun (what, x, y) -> if x = y then None else Some (Printf.sprintf "%s: %s vs %s" what x y))
    [
      ("nproc", string_of_int a.nproc, string_of_int b.nproc);
      ("ocaml", a.ocaml, b.ocaml);
      ("workload", a.workload, b.workload);
      ("trace", string_of_bool a.trace, string_of_bool b.trace);
    ]

(* --- result line ------------------------------------------------------------ *)

let metrics_json values =
  Jsonx.Obj
    (List.map
       (fun (s, v) -> (s.name, Jsonx.Obj [ ("value", Jsonx.Float v); ("unit", Jsonx.Str s.unit) ]))
       values)

(* Pairs every catalogue entry of [specs] with its measured value; a
   metric the workload does not exercise reads 0. *)
let complete specs measured =
  List.map (fun s -> (s, Option.value ~default:0. (List.assoc_opt s.name measured))) specs

let result_line ~correct ~attempted ~failed values =
  Jsonx.to_string
    (Jsonx.Obj
       [
         ("correct", Jsonx.Bool correct);
         ("attempted", Jsonx.Int attempted);
         ("failed", Jsonx.Int failed);
         ("metrics", metrics_json values);
       ])

(* --- BENCHMARK.json ------------------------------------------------------- *)

type manifest = {
  command : string list;
  paths : string list;
  run_seconds : int;
  workloads : (string * string) list;
  m_end_to_end : spec list;
  m_per_layer : spec list;
}

let better_name = function Lower -> "lower" | Higher -> "higher"

let spec_to_json s =
  Jsonx.Obj
    ([
       ("name", Jsonx.Str s.name);
       ("unit", Jsonx.Str s.unit);
       ("better", Jsonx.Str (better_name s.better));
     ]
    @ match s.bound with None -> [] | Some b -> [ ("bound", Jsonx.Float b) ])

let manifest =
  {
    command;
    paths = [ "perfbench" ];
    run_seconds;
    workloads;
    m_end_to_end = end_to_end;
    m_per_layer = per_layer;
  }

let manifest_to_json m =
  let strs l = Jsonx.List (List.map (fun s -> Jsonx.Str s) l) in
  Jsonx.Obj
    [
      ("command", strs m.command);
      ("paths", strs m.paths);
      ("run_seconds", Jsonx.Int m.run_seconds);
      ( "workloads",
        Jsonx.List
          (List.map
             (fun (name, why) -> Jsonx.Obj [ ("name", Jsonx.Str name); ("why", Jsonx.Str why) ])
             m.workloads) );
      ("end_to_end", Jsonx.List (List.map spec_to_json m.m_end_to_end));
      ("per_layer", Jsonx.List (List.map spec_to_json m.m_per_layer));
    ]
