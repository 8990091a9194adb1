(* One pool shared by every experiment table, sized from BNCG_JOBS (or
   the hardware default) and created on first use so experiment code that
   never goes parallel spawns no domains. *)
let jobs () =
  match Sys.getenv_opt "BNCG_JOBS" with
  | Some s -> (
    match int_of_string_opt s with
    | Some j when j >= 1 -> j
    | _ -> invalid_arg "BNCG_JOBS must be a positive integer")
  | None -> Pool.available_jobs ()

let shared_pool = lazy (Pool.create ~jobs:(jobs ()) ())

let pool () = Lazy.force shared_pool

(* BNCG_STATS mirrors the CLI's --stats for the experiment harness and the
   benchmark driver: any value except the usual falsey spellings turns the
   telemetry layer on. *)
let stats_enabled () =
  match Sys.getenv_opt "BNCG_STATS" with
  | None | Some "" | Some "0" | Some "false" | Some "no" -> false
  | Some _ -> true

let with_stats f =
  if not (stats_enabled ()) then f ()
  else begin
    Telemetry.reset ();
    Telemetry.set_enabled true;
    Fun.protect ~finally:Telemetry.print_report f
  end

let diameter_cell g =
  match Metrics.diameter g with Some d -> string_of_int d | None -> "inf"

let girth_cell g =
  match Metrics.girth g with Some d -> string_of_int d | None -> "-"

let verdict_cell = function
  | Equilibrium.Equilibrium -> "yes"
  | Equilibrium.Disconnected -> "no (disconnected)"
  | Equilibrium.Violation (mv, d) ->
    Printf.sprintf "no (%s, delta %d)" (Swap.move_to_string mv) d
  | Equilibrium.Alpha_violation (mv, d) ->
    Printf.sprintf "no (%s, delta %g)" (Alpha_game.move_to_string mv) d

let sum_verdict g = verdict_cell (Equilibrium.check Game.Sum g)

let max_verdict g = verdict_cell (Equilibrium.check Game.Max g)

let outcome_name = function
  | Dynamics.Converged -> "converged"
  | Dynamics.Cycled -> "cycled"
  | Dynamics.Round_limit -> "round-limit"

let mean_cell xs = Table.cell_float ~digits:2 (Stats.mean xs)

let minmax_cell xs =
  let lo = Array.fold_left min xs.(0) xs and hi = Array.fold_left max xs.(0) xs in
  if lo = hi then string_of_int lo else Printf.sprintf "%d..%d" lo hi

(* Experiment seeds are [base+1 .. base+k]; the base is 0 unless BNCG_SEED
   or the CLI's --seed moves it, so every table is reproducible from the
   command line without recompiling. *)
let seed_base =
  ref
    (match Sys.getenv_opt "BNCG_SEED" with
    | None | Some "" -> 0
    | Some s -> (
      match int_of_string_opt s with
      | Some v -> v
      | None -> invalid_arg "BNCG_SEED must be an integer"))

let set_seed_base b = seed_base := b

let seeds k = Array.init k (fun i -> !seed_base + i + 1)
