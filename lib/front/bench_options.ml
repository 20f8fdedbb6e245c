open Cmdliner

type t = {
  scale : Olayout_harness.Context.scale;
  selection : Olayout_harness.Report.selection;
  micro : bool;
  trace_stats : bool;
  telemetry_out : string option;
  bench_json : bool;
  diagnose : bool;
  telemetry_summary : bool;
  baseline : string option;
  gate : bool;
  tolerance : float option;
  compare_out : string option;
  chrome_trace : string option;
  jobs : int option;
  retain_mb : int option;
  bench_json_out : string option;
  engine : Olayout_cachesim.Battery.engine;
  timeline_out : string option;
  timeline_window : int option;
  explain_out : string option;
  drift_out : string option;
  relayout_out : string option;
}

let flag name doc = Arg.(value & flag & info [ name ] ~doc)
let out name doc = Front.output ~names:[ name ] ~doc ()

let check o =
  if o.gate && o.baseline = None then
    `Error (true, "--gate needs --baseline FILE: there is nothing to gate against")
  else if o.tolerance <> None && o.baseline = None then
    `Error (true, "--tolerance only applies to a --baseline FILE comparison")
  else if o.timeline_window <> None && o.timeline_out = None then
    `Error (true, "--timeline-window only applies with --timeline-out FILE")
  else `Ok o

let term =
  let open Term.Syntax in
  Term.ret
  @@ let+ scale = Front.scale
     and+ selection = Front.selection
     and+ no_micro = flag "no-micro" "Skip the Bechamel microbenchmarks of the layout passes."
     and+ trace_stats = Front.trace_stats
     and+ telemetry_out = Front.telemetry_out
     and+ bench_json = flag "bench-json" "Write the BENCH_<scale>.json run summary."
     and+ diagnose = flag "diagnose" "Write DIAG_<scale>.json miss diagnostics (fig4 geometry)."
     and+ telemetry_summary = flag "telemetry-summary" "Print the span/counter summary at the end."
     and+ baseline =
       Arg.(
         value
         & opt (some file) None
         & info [ "baseline" ] ~docv:"FILE"
             ~doc:"Diff this run's BENCH artifact against a saved olayout-bench/v1 artifact.")
     and+ gate = Front.gate
     and+ tolerance = Front.tolerance
     and+ compare_out = out "compare-out" "Where the baseline diff goes (default COMPARE_<scale>.json)."
     and+ chrome_trace = out "chrome-trace" "Write a Perfetto-loadable trace-event file."
     and+ jobs = Front.jobs
     and+ retain_mb = Front.retain_mb
     and+ bench_json_out = out "bench-json-out" "Write the BENCH artifact to $(docv) (implies --bench-json)."
     and+ engine = Front.engine
     and+ timeline_out = out "timeline-out" "Write the windowed metric series artifact."
     and+ timeline_window =
       Arg.(
         value
         & opt (some (Front.at_least 1)) None
         & info [ "timeline-window" ] ~docv:"INSTRS"
             ~doc:"Timeline window width in instructions (default 65536 quick, 524288 full).")
     and+ explain_out = out "explain-out" "Write the per-procedure layout scorecard artifact."
     and+ drift_out = out "drift-out" "Write the workload-drift observatory artifact."
     and+ relayout_out = out "relayout-out" "Write the closed-loop re-layout cadence sweep artifact." in
     check
       {
         scale;
         selection;
         micro = not no_micro;
         trace_stats;
         telemetry_out;
         bench_json;
         diagnose;
         telemetry_summary;
         baseline;
         gate;
         tolerance;
         compare_out;
         chrome_trace;
         jobs;
         retain_mb;
         bench_json_out;
         engine;
         timeline_out;
         timeline_window;
         explain_out;
         drift_out;
         relayout_out;
       }

let cmd f =
  Cmd.v
    (Cmd.info "bench"
       ~doc:
         "Regenerate every table and figure of the paper's evaluation, then \
          microbenchmark the layout passes.")
    Term.(const f $ term)
