(* The bncg executable's exit-status contract, driven as a user would:
   every invalid invocation exits 124 with nothing on stdout and a
   "bncg: ..." line on stderr (never 125, cmdliner's uncaught-exception
   status), and a few invocations print exact bytes. *)

open Test_helpers

(* bin/main.exe, a declared dep of this test; located from the test
   binary the way test_atlas locates atlas_crash_writer.exe *)
let bncg =
  Filename.concat
    (Filename.dirname (Filename.dirname Sys.executable_name))
    (Filename.concat "bin" "main.exe")

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* (exit status, stdout, stderr) of bncg ARGS *)
let run args =
  let out = Filename.temp_file "bncg-cli" ".out" in
  let err = Filename.temp_file "bncg-cli" ".err" in
  let fd path = Unix.openfile path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let fo = fd out and fe = fd err in
  let pid =
    Unix.create_process bncg (Array.of_list (bncg :: args)) Unix.stdin fo fe
  in
  Unix.close fo;
  Unix.close fe;
  let status =
    match snd (Unix.waitpid [] pid) with
    | Unix.WEXITED c -> c
    | Unix.WSIGNALED s | Unix.WSTOPPED s -> -s
  in
  let o = read_file out and e = read_file err in
  Sys.remove out;
  Sys.remove err;
  (status, o, e)

let invalid =
  [
    [ "dynamics"; "-n"; "0" ];
    [ "hunt"; "-n"; "1" ];
    [ "dynamics"; "--engine"; "scale"; "-n"; "0" ];
    [ "dynamics"; "--engine"; "scale"; "-n"; "1000"; "--ba-m"; "0" ];
    [ "dynamics"; "--engine"; "scale"; "--gen"; "er"; "--er-deg=-1" ];
    [ "dynamics"; "--engine"; "scale"; "--gen"; "ws"; "--ws-beta=2" ];
    [ "dynamics"; "--engine"; "scale"; "-n"; "1000"; "--budget"; "0" ];
    [ "dynamics"; "--engine"; "scale"; "-n"; "1000"; "--window"; "0" ];
    [ "dynamics"; "-n"; "5"; "--max-rounds=-5" ];
    [ "hunt"; "-n"; "6"; "--steps"; "0" ];
    [ "dynamics"; "--engine"; "scale"; "-n"; "1000"; "--probes=-1" ];
    [ "dynamics"; "--engine"; "scale"; "-n"; "1000"; "--traj-sources=-3" ];
    [ "census"; "-n"; "5"; "--parts=-1" ];
    [ "census"; "-n"; "5"; "--workers"; "local"; "--timeout=-1" ];
    [ "dynamics"; "--game"; "alpha:1"; "-n"; "6"; "--trace" ];
    [ "dynamics"; "--engine"; "scale"; "--game"; "alpha:1" ];
    [ "generate"; "star" ];
    [ "check"; "--game"; "median"; "Cs" ];
    [ "check"; "--jobs=-1"; "Cs" ];
    [ "check"; "not-graph6" ];
    [ "census"; "-n"; "99" ];
    [ "experiment"; "no-such-experiment" ];
    [ "serve" ];
  ]

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let invalid_case args =
  case (String.concat " " args) @@ fun () ->
  let status, out, err = run args in
  check_int "exit status" 124 status;
  Alcotest.(check string) "stdout" "" out;
  check_true ("stderr starts with bncg: — " ^ err) (starts_with ~prefix:"bncg:" err)

let exact =
  [
    ([ "generate"; "star"; "-n"; "5" ], "Ds_\n");
    ( [ "census"; "--game"; "max"; "-n"; "4" ],
      "connected graphs: 38\n\
       equilibria: 8 labeled, 3 up to isomorphism\n\
       diameter histogram: 1 -> 1, 2 -> 2\n\
      \  representative: Cs\n\
      \  representative: C]\n\
      \  representative: C~\n" );
    (* no candidate reaches diameter 6 on 5 vertices: say so, rather than
       printing Hunt's -1 "no candidate" sentinel as a violation count *)
    ( [ "hunt"; "-n"; "5"; "--diameter"; "6"; "--steps"; "50" ],
      "not found (no candidate reached diameter >= 6; 204 candidates scored)\n" );
  ]

let exact_case (args, expected) =
  case (String.concat " " args) @@ fun () ->
  let status, out, _ = run args in
  check_int "exit status" 0 status;
  Alcotest.(check string) "stdout" expected out

let suite = List.map invalid_case invalid @ List.map exact_case exact
