(* The repository benchmark.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
     main.exe compare A B
     main.exe manifest      BENCHMARK.json, compact (pipe through a JSON
                            pretty-printer to refresh the committed file)

   A run prints a readable report, a "fingerprint" line, a "report" line
   (JSON, read by [compare]) and, last, the one-line result:
   {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
   metrics are the end-to-end catalogue; with --trace 1 the per-layer
   catalogue, where a layer the workload does not exercise reads 0 and
   is left out of the readable report. [compare] diffs the report lines
   of two saved outputs, or names the fingerprint fields that differ. *)

open Pbcore

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s); exit 2) fmt

(* canon.symmetric: Canon.canonical_form on highly symmetric graphs,
   whose cost grows with |Aut|; each timed until 50 ms accumulate *)
let canon_probe () =
  let graphs =
    List.map (fun n -> Generators.star n) [ 6; 7; 8; 9; 10; 11 ]
    @ [ Generators.cycle 12; Generators.petersen (); Generators.torus_grid 3 3 ]
  in
  List.map2
    (fun name g ->
      let reps = ref 0 and total = ref 0. in
      while !total < 0.05 do
        let _, dt = time (fun () -> Canon.canonical_form g) in
        incr reps;
        total := !total +. dt
      done;
      ("canon.symmetric." ^ name ^ "_ms", 1e3 *. !total /. float_of_int !reps))
    symmetric_probe_names graphs

(* end-to-end metrics of a closed loop of whole requests (a census, a
   scale round) *)
let request_loop_metrics samples ~peak =
  let p, tail = tail_or_median samples in
  ( [
      ("wall_s", median samples);
      ("req_per_s", float_of_int (List.length samples) /. List.fold_left ( +. ) 0. samples);
      ("latency_p50_ms", 1e3 *. median samples);
      ("latency_p99_ms", 1e3 *. tail);
      ("peak_rss_mb", peak);
    ],
    Printf.sprintf "%d requests; latency_p99_ms is p%g" (List.length samples) p )

let census_expect = function "census-sum" -> Census_wl.census_sum | _ -> Census_wl.census_max

let run_e2e workload ~seed ~seconds =
  match workload with
  | "census-sum" | "census-max" ->
    let t, setup_s, samples = Census_wl.run (census_expect workload) ~seconds in
    let m, note = request_loop_metrics samples ~peak:(peak_rss_mb ()) in
    (t, ("setup_s", setup_s) :: m, note)
  | "scale-ba" ->
    let t, setup_s, samples, peak = Scale_wl.run seed ~seconds in
    let m, note = request_loop_metrics samples ~peak in
    (t, ("setup_s", setup_s) :: m, note)
  | _ -> Serve_wl.run seed ~seconds

let run_traced workload ~seed ~seconds =
  let t, wall, m =
    match workload with
    | "census-sum" | "census-max" -> Census_wl.traced (census_expect workload)
    | "scale-ba" -> Scale_wl.traced seed
    | _ -> Serve_wl.traced seed ~seconds
  in
  (t, m @ canon_probe (), Printf.sprintf "traced wall %.3f s" wall)

let print_rows values ~hide_zero =
  List.iter
    (fun (s, v) ->
      if not (hide_zero && v = 0.) then Printf.printf "  %-36s %16.6f %s\n" s.name v s.unit)
    values

let bench workload ~seed ~seconds ~trace =
  let fp = fingerprint ~workload ~seed ~trace in
  let t, measured, note =
    if trace then run_traced workload ~seed ~seconds:(float_of_int seconds)
    else run_e2e workload ~seed ~seconds:(float_of_int seconds)
  in
  let values = complete (if trace then per_layer else end_to_end) measured in
  Printf.printf "perfbench %s seed=%d seconds=%d trace=%b (%s)\n" workload seed seconds trace note;
  print_rows values ~hide_zero:trace;
  Printf.printf "  %-36s %16.6f (%d failed / %d attempted)\n" "error_rate" (error_rate t) t.failed
    t.attempted;
  List.iter (fun n -> Printf.printf "  failed check: %s\n" n) (List.rev t.notes);
  let fpj = fingerprint_to_json fp in
  Printf.printf "fingerprint %s\n" (Jsonx.to_string fpj);
  Printf.printf "report %s\n"
    (Jsonx.to_string
       (Jsonx.Obj
          [
            ("fingerprint", fpj);
            ("attempted", Jsonx.Int t.attempted);
            ("failed", Jsonx.Int t.failed);
            ("metrics", metrics_json values);
          ]));
  print_endline
    (result_line ~correct:(t.failed = 0 && t.attempted > 0) ~attempted:t.attempted
       ~failed:t.failed values)

(* --- compare ------------------------------------------------------------------ *)

let load_report path =
  let text = match read_file path with Some s -> s | None -> die "cannot read %s" path in
  let prefix = "report " and n = String.length "report " in
  match List.find_opt (String.starts_with ~prefix) (String.split_on_char '\n' text) with
  | None -> die "%s holds no report line" path
  | Some l -> (
    match Jsonx.parse (String.sub l n (String.length l - n)) with
    | Error e -> die "%s: %s" path e
    | Ok j -> (
      match Option.map fingerprint_of_json (Jsonx.member "fingerprint" j) with
      | Some (Ok fp) ->
        let metrics =
          match Jsonx.member "metrics" j with
          | Some (Jsonx.Obj fields) ->
            List.filter_map
              (fun (name, m) ->
                match Jsonx.member "value" m with
                | Some (Jsonx.Float v) -> Some (name, v)
                | _ -> None)
              fields
          | _ -> []
        in
        (fp, metrics)
      | _ -> die "%s: report line has no valid fingerprint" path))

let compare_reports a b =
  let fa, ma = load_report a and fb, mb = load_report b in
  match fingerprint_mismatches fa fb with
  | _ :: _ as diffs ->
    Printf.printf "fingerprint mismatch, not comparing:\n";
    List.iter (Printf.printf "  %s\n") diffs;
    exit 3
  | [] ->
    Printf.printf "A: commit %s source %s seed %d\nB: commit %s source %s seed %d\n" fa.commit
      fa.source_digest fa.seed fb.commit fb.source_digest fb.seed;
    List.iter
      (fun (name, va) ->
        match List.assoc_opt name mb with
        | Some vb ->
          Printf.printf "  %-36s %14.6f %14.6f %+8.2f%%\n" name va vb
            (if va = 0. then 0. else 100. *. (vb -. va) /. va)
        | None -> Printf.printf "  %-36s %14.6f %14s\n" name va "-")
      ma

(* --- arguments --------------------------------------------------------------- *)

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "compare"; a; b ] -> compare_reports a b
  | [ "manifest" ] -> print_endline (Jsonx.to_string (manifest_to_json manifest))
  | args ->
    let workload = ref None and seed = ref 1 and seconds = ref 20 and trace = ref false in
    let int_arg k v = match int_of_string_opt v with Some i -> i | None -> die "%s wants an integer" k in
    let rec scan = function
      | [] -> ()
      | "--workload" :: w :: rest ->
        if not (List.mem_assoc w workloads) then
          die "unknown workload %s (one of %s)" w (String.concat ", " (List.map fst workloads));
        workload := Some w;
        scan rest
      | "--seed" :: v :: rest ->
        seed := int_arg "--seed" v;
        scan rest
      | "--seconds" :: v :: rest ->
        seconds := int_arg "--seconds" v;
        if !seconds < 1 then die "--seconds must be >= 1";
        scan rest
      | "--trace" :: v :: rest ->
        trace := int_arg "--trace" v <> 0;
        scan rest
      | a :: _ -> die "unknown argument %s" a
    in
    scan args;
    let workload = match !workload with Some w -> w | None -> die "--workload is required" in
    bench workload ~seed:!seed ~seconds:!seconds ~trace:!trace
