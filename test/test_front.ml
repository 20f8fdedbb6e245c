(* Tests for the shared command-line front end: the bench term parses every
   bench/main.exe command line the CI workflow runs into the expected
   options record, and every malformed input is a usage error (exit 2)
   whose message names the flag and its valid values — before any
   workload exists. *)

open Cmdliner
module Front = Olayout_front.Front
module Bench_options = Olayout_front.Bench_options
module Context = Olayout_harness.Context
module Report = Olayout_harness.Report
module Spike = Olayout_core.Spike

let words s = String.split_on_char ' ' s |> List.filter (( <> ) "") |> List.map String.trim

let argv_of s = Array.of_list ("bench" :: words s)

(* Cmdliner wraps long messages; compare on single-spaced text. *)
let squash s =
  String.concat " "
    (List.filter (( <> ) "")
       (String.split_on_char ' '
          (String.map (function '\n' | '\t' -> ' ' | c -> c) s)))

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* The CI command lines name bench/baselines/quick.json relative to the
   repository root; evaluate them from a scratch directory holding that
   file. *)
let in_ci_root f =
  let root = Filename.temp_dir "olayout_front" "" in
  let baselines = Filename.concat (Filename.concat root "bench") "baselines" in
  Sys.mkdir (Filename.dirname baselines) 0o755;
  Sys.mkdir baselines 0o755;
  let baseline = Filename.concat baselines "quick.json" in
  Out_channel.with_open_text baseline (fun oc -> output_string oc "{}\n");
  let cwd = Sys.getcwd () in
  Sys.chdir root;
  Fun.protect
    ~finally:(fun () ->
      Sys.chdir cwd;
      Sys.remove baseline;
      List.iter Sys.rmdir [ baselines; Filename.dirname baselines; root ])
    f

let parse_bench line =
  match Cmd.eval_value ~argv:(argv_of line) (Bench_options.cmd Fun.id) with
  | Ok (`Ok o) -> o
  | Ok (`Help | `Version) -> Alcotest.failf "%s: help instead of options" line
  | Error _ -> Alcotest.failf "%s: rejected" line

let test_ci_smoke () =
  let o = parse_bench "--quick --no-micro --only fig4,fig6 --trace-stats" in
  Alcotest.(check bool) "quick" true (o.scale = Context.Quick);
  Alcotest.(check bool) "selection" true (o.selection = Report.Only [ "fig4"; "fig6" ]);
  Alcotest.(check bool) "no micro" false o.micro;
  Alcotest.(check bool) "trace stats" true o.trace_stats;
  Alcotest.(check bool) "serial" true (o.jobs = None);
  Alcotest.(check bool) "stackdist" true (o.engine = `Stackdist);
  Alcotest.(check bool) "no artifacts" true
    (o.bench_json = false && o.baseline = None && o.timeline_out = None)

let test_ci_baseline_gate () =
  in_ci_root (fun () ->
      let o =
        parse_bench
          "--quick --no-micro --bench-json --diagnose --timeline-out TIMELINE_quick.json \
           --explain-out EXPLAIN_quick.json --drift-out DRIFT_quick.json \
           --relayout-out RELAYOUT_quick.json --baseline bench/baselines/quick.json --gate \
           --compare-out COMPARE_quick.json --chrome-trace TRACE_quick.json"
      in
      Alcotest.(check bool) "all experiments" true (o.selection = Report.All);
      Alcotest.(check bool) "bench json + diagnose" true (o.bench_json && o.diagnose);
      Alcotest.(check (option string)) "timeline" (Some "TIMELINE_quick.json") o.timeline_out;
      Alcotest.(check (option int)) "default window" None o.timeline_window;
      Alcotest.(check (option string)) "explain" (Some "EXPLAIN_quick.json") o.explain_out;
      Alcotest.(check (list (pair string string)))
        "artifacts"
        [ ("drift", "DRIFT_quick.json"); ("relayout", "RELAYOUT_quick.json") ]
        o.artifacts;
      Alcotest.(check (option string))
        "baseline" (Some "bench/baselines/quick.json") o.baseline;
      Alcotest.(check bool) "gate" true o.gate;
      Alcotest.(check (option (float 0.0))) "tolerance" None o.tolerance;
      Alcotest.(check (option string)) "compare" (Some "COMPARE_quick.json") o.compare_out;
      Alcotest.(check (option string)) "chrome" (Some "TRACE_quick.json") o.chrome_trace;
      Alcotest.(check (option string)) "bench json out" None o.bench_json_out;
      Alcotest.(check bool) "serial" true (o.jobs = None))

let test_ci_parallel () =
  in_ci_root (fun () ->
      let o =
        parse_bench
          "--quick --no-micro -j 2 --timeline-out TIMELINE_quick_j2.json \
           --explain-out EXPLAIN_quick_j2.json --drift-out DRIFT_quick_j2.json \
           --relayout-out RELAYOUT_quick_j2.json --baseline bench/baselines/quick.json \
           --gate --bench-json-out BENCH_quick_j2.json --compare-out COMPARE_quick_j2.json"
      in
      Alcotest.(check (option int)) "jobs" (Some 2) o.jobs;
      Alcotest.(check bool) "no --bench-json flag" false o.bench_json;
      Alcotest.(check (option string))
        "bench json out" (Some "BENCH_quick_j2.json") o.bench_json_out;
      Alcotest.(check (option string))
        "drift" (Some "DRIFT_quick_j2.json") (List.assoc_opt "drift" o.artifacts);
      Alcotest.(check bool) "gate" true o.gate;
      Alcotest.(check bool) "diagnose off" false o.diagnose)

let test_ci_cross_engine () =
  let o =
    parse_bench
      "--quick --no-micro --engine icache --timeline-out TIMELINE_quick_icache.json \
       --explain-out EXPLAIN_quick_icache.json --drift-out DRIFT_quick_icache.json \
       --relayout-out RELAYOUT_quick_icache.json --bench-json-out BENCH_quick_icache.json"
  in
  Alcotest.(check bool) "icache" true (o.engine = `Icache);
  Alcotest.(check (option string))
    "relayout" (Some "RELAYOUT_quick_icache.json") (List.assoc_opt "relayout" o.artifacts);
  Alcotest.(check bool) "no gate" false o.gate;
  Alcotest.(check bool) "micro default on" true (parse_bench "").micro;
  Alcotest.(check bool) "full by default" true ((parse_bench "").scale = Context.Full)

let test_valid_values () =
  Alcotest.(check (option int)) "-j auto" (Some 0) (parse_bench "-j auto").jobs;
  Alcotest.(check (option int)) "--jobs=3" (Some 3) (parse_bench "--jobs=3").jobs;
  Alcotest.(check (option int)) "--retain-mb 0" (Some 0) (parse_bench "--retain-mb 0").retain_mb;
  let o = parse_bench "--timeline-out t.json --timeline-window 4096" in
  Alcotest.(check (option int)) "window" (Some 4096) o.timeline_window;
  in_ci_root (fun () ->
      let o = parse_bench "--baseline bench/baselines/quick.json --tolerance 0.5" in
      Alcotest.(check (option (float 0.0))) "tolerance" (Some 0.5) o.tolerance)

(* --- usage errors -------------------------------------------------------- *)

(* Evaluate [term] under a throwaway command, returning the exit status
   and the (single-spaced) error text. *)
let status term args =
  let buf = Buffer.create 256 in
  let err = Format.formatter_of_buffer buf in
  let cmd = Cmd.v (Cmd.info "t") Term.(const (fun _ -> 0) $ term) in
  let code = Front.eval ~argv:(Array.of_list ("t" :: args)) ~err cmd in
  Format.pp_print_flush err ();
  (code, squash (Buffer.contents buf))

let expect_usage_error term args subs =
  let what = String.concat " " args in
  let code, msg = status term args in
  Alcotest.(check int) (what ^ ": exit status") Front.usage_status code;
  List.iter
    (fun sub ->
      if not (contains ~sub msg) then Alcotest.failf "%s: %S not in %S" what sub msg)
    subs

let int_opt name c default = Arg.(value & opt c default & info [ name ])

let test_bench_usage_errors () =
  let b = Bench_options.term in
  expect_usage_error b [ "--only"; "bogus" ]
    [ "--only"; "unknown experiment \"bogus\""; "fig4, fig6" ];
  expect_usage_error b [ "--bench-json-out"; "/nonexistent/dir/B.json" ]
    [ "--bench-json-out"; "\"/nonexistent/dir\" does not exist" ];
  expect_usage_error b [ "-j"; "0" ] [ "-j"; "positive domain count or \"auto\"" ];
  expect_usage_error b [ "--retain-mb=-5" ] [ "--retain-mb"; ">= 0" ];
  expect_usage_error b [ "--engine"; "lru" ] [ "--engine"; "icache"; "stackdist" ];
  expect_usage_error b [ "--timeline-out"; "t.json"; "--timeline-window"; "0" ]
    [ "--timeline-window"; ">= 1" ];
  expect_usage_error b [ "--tolerance=-0.1"; "--baseline"; "/" ] [ "--tolerance" ];
  expect_usage_error b [ "--no-such-flag" ] [ "--no-such-flag" ];
  (* cross-flag rules *)
  expect_usage_error b [ "--gate" ] [ "--gate needs --baseline" ];
  expect_usage_error b [ "--tolerance"; "0.1" ] [ "--tolerance only applies" ];
  expect_usage_error b [ "--timeline-window"; "4096" ]
    [ "--timeline-window only applies with --timeline-out" ]

let test_cli_usage_errors () =
  let report = Term.(const (fun _ _ _ -> ()) $ Front.selection $ Front.jobs $ Front.retain_mb) in
  expect_usage_error report [ "--retain-mb=-5" ] [ "--retain-mb"; ">= 0" ];
  expect_usage_error report [ "--only"; "bogus" ] [ "--only"; "relayout" ];
  expect_usage_error report [ "-j"; "0" ] [ "-j"; "\"auto\"" ];
  let top = int_opt "top" (Front.at_least 1) 10 in
  expect_usage_error top [ "--top=-1" ] [ "--top"; ">= 1"; "\"-1\"" ];
  expect_usage_error top [ "--top=0" ] [ "--top"; ">= 1" ];
  expect_usage_error (int_opt "max-runs" (Front.at_least 0) 1) [ "--max-runs=-3" ]
    [ "--max-runs"; ">= 0" ];
  expect_usage_error (int_opt "window" (Front.at_least 1) 1) [ "--window"; "0" ]
    [ "--window"; ">= 1" ];
  expect_usage_error (int_opt "windows" (Front.at_least 2) 4) [ "--windows"; "1" ]
    [ "--windows"; ">= 2" ];
  let cadences = int_opt "cadences" (Front.at_least_list 1) [ 1 ] in
  expect_usage_error cadences [ "--cadences"; "" ] [ "--cadences"; "non-empty" ];
  expect_usage_error cadences [ "--cadences"; "1,0" ] [ "--cadences"; ">= 1" ];
  expect_usage_error (Front.figure ~doc:"") [ "--figure"; "bogus" ]
    [ "--figure"; "unknown figure \"bogus\""; "fig4, fig6, fig12" ];
  expect_usage_error (Front.combo ~optimized:true ~default:Spike.All ~doc:"" ())
    [ "--combo"; "base" ] [ "--combo"; "unknown combo \"base\""; "chain" ];
  expect_usage_error (Front.output ~doc:"" ()) [ "-o"; "/nonexistent/dir/E.json" ]
    [ "-o"; "does not exist" ];
  List.iter
    (fun (flag, v) ->
      expect_usage_error (int_opt flag Front.pow2 1) [ "--" ^ flag; v ]
        [ "--" ^ flag; "power of two >= 1" ])
    [ ("size-kb", "0"); ("line", "0"); ("assoc", "0"); ("size-kb", "3") ]

(* --- the experiment registry ---------------------------------------------- *)

let test_registry () =
  let ids = List.map Olayout_harness.Experiment.id Report.experiments in
  Alcotest.(check int) "ids unique" (List.length ids)
    (List.length (List.sort_uniq compare ids));
  Alcotest.(check (list string)) "experiment_ids in registry order" ids
    Report.experiment_ids;
  Alcotest.(check (list (pair string string)))
    "artifact flags in registry order"
    [ ("drift", "d.json"); ("relayout", "r.json") ]
    (parse_bench "--relayout-out r.json --drift-out d.json").artifacts;
  Alcotest.(check (list (pair string string))) "no artifact flags" [] (parse_bench "").artifacts;
  let code, msg = status Bench_options.term [ "--bogus-out"; "b.json" ] in
  Alcotest.(check int) "--bogus-out exit status" Front.usage_status code;
  Alcotest.(check bool) "--bogus-out named" true (contains ~sub:"--bogus-out" msg)

let test_eval_status () =
  let code, _ = status Front.jobs [ "-j"; "auto" ] in
  Alcotest.(check int) "accepted" 0 code;
  let cmd = Cmd.v (Cmd.info "t") Term.(const 7) in
  Alcotest.(check int) "command's own status" 7 (Front.eval ~argv:[| "t" |] cmd)

let suite =
  ( "front",
    [
      Alcotest.test_case "ci: smoke leg" `Quick test_ci_smoke;
      Alcotest.test_case "ci: baseline-gate leg" `Quick test_ci_baseline_gate;
      Alcotest.test_case "ci: parallel leg" `Quick test_ci_parallel;
      Alcotest.test_case "ci: cross-engine leg" `Quick test_ci_cross_engine;
      Alcotest.test_case "valid values" `Quick test_valid_values;
      Alcotest.test_case "experiment registry" `Quick test_registry;
      Alcotest.test_case "bench usage errors exit 2" `Quick test_bench_usage_errors;
      Alcotest.test_case "cli usage errors exit 2" `Quick test_cli_usage_errors;
      Alcotest.test_case "eval status" `Quick test_eval_status;
    ] )
