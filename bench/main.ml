(* The benchmark harness: regenerates every table and figure of the paper's
   evaluation (one experiment per figure; see DESIGN.md for the index), then
   runs Bechamel microbenchmarks of the optimizer passes themselves.

   Usage: dune exec bench/main.exe -- [--quick] [--only IDS] [-j N] ...
   (--help lists every flag; the flags are parsed by Olayout_front). *)

module Context = Olayout_harness.Context
module Report = Olayout_harness.Report
module Spike = Olayout_core.Spike
module Placement = Olayout_core.Placement
module Chaining = Olayout_core.Chaining
module Splitting = Olayout_core.Splitting
module Pettis_hansen = Olayout_core.Pettis_hansen
module Telemetry = Olayout_telemetry.Telemetry
module Json = Olayout_telemetry.Json
module Bench_artifact = Olayout_telemetry.Bench_artifact
module Timeline = Olayout_telemetry.Timeline
module Artifact = Olayout_regress.Artifact
module Diff = Olayout_regress.Diff
module Fidelity = Olayout_regress.Fidelity
module Chrome_trace = Olayout_regress.Chrome_trace
module Pool = Olayout_par.Pool
module Diagnose = Olayout_harness.Diagnose
module Front = Olayout_front.Front
module Bench_options = Olayout_front.Bench_options

(* --- Bechamel microbenchmarks of the layout passes --- *)

let microbench ctx =
  let open Bechamel in
  let profile = Context.app_profile ctx in
  let prog = Olayout_profile.Profile.prog profile in
  let chained = lazy (Splitting.fine_grain profile) in
  (* A canned trace slice for simulator-throughput measurement. *)
  let runs =
    lazy
      (let placement = Placement.original prog in
       let acc = ref [] and n = ref 0 in
       let m =
         Olayout_exec.Render.merger ~emit:(fun r ->
             if !n < 50_000 then begin
               incr n;
               acc := r :: !acc
             end)
       in
       let walk = Olayout_exec.Walk.create ~prog ~rng:(Olayout_util.Rng.create 123) in
       Olayout_exec.Walk.add_sink walk
         (Olayout_exec.Render.sink
            (Olayout_exec.Render.create ~placement ~owner:Olayout_exec.Run.App m));
       while !n < 50_000 do
         for p = 0 to Olayout_ir.Prog.n_procs prog - 1 do
           Olayout_exec.Walk.call walk p
         done
       done;
       Array.of_list !acc)
  in
  let sim_cache =
    lazy
      (Olayout_cachesim.Icache.create
         (Olayout_cachesim.Icache.config ~size_kb:64 ~line:128 ~assoc:2 ()))
  in
  let trace =
    lazy
      (let emit, t = Olayout_exec.Trace.record () in
       Array.iter emit (Lazy.force runs);
       t)
  in
  let tests =
    Test.make_grouped ~name:"layout passes"
      [
        Test.make ~name:"chaining (whole binary)"
          (Staged.stage (fun () -> ignore (Chaining.segments_one_per_proc profile)));
        Test.make ~name:"fine-grain splitting"
          (Staged.stage (fun () -> ignore (Splitting.fine_grain profile)));
        Test.make ~name:"hot/cold splitting"
          (Staged.stage (fun () -> ignore (Splitting.hot_cold profile)));
        Test.make ~name:"pettis-hansen ordering"
          (Staged.stage (fun () ->
               ignore (Pettis_hansen.order profile (Lazy.force chained))));
        Test.make ~name:"placement (address assignment)"
          (Staged.stage (fun () ->
               ignore (Placement.of_segments ~align:4 prog (Lazy.force chained))));
        Test.make ~name:"full pipeline (all)"
          (Staged.stage (fun () -> ignore (Spike.optimize profile Spike.All)));
        Test.make ~name:"icache sim (50k-run trace slice)"
          (Staged.stage (fun () ->
               let cache = Lazy.force sim_cache in
               Array.iter
                 (fun r -> Olayout_cachesim.Icache.access_run cache r)
                 (Lazy.force runs)));
        Test.make ~name:"trace decode+replay (50k runs)"
          (Staged.stage (fun () ->
               let n = ref 0 in
               Olayout_exec.Trace.replay (Lazy.force trace) (fun _ -> incr n)));
        Test.make ~name:"trace replay into icache (50k runs)"
          (Staged.stage (fun () ->
               let cache = Lazy.force sim_cache in
               Olayout_exec.Trace.replay (Lazy.force trace)
                 (Olayout_cachesim.Icache.access_run cache)));
      ]
  in
  let benchmark () =
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
    in
    let instances = Toolkit.Instance.[ monotonic_clock ] in
    let cfg =
      Benchmark.cfg ~limit:1000 ~quota:(Time.second 2.0) ~stabilize:false ()
    in
    let raw = Benchmark.all cfg instances tests in
    Analyze.all ols Toolkit.Instance.monotonic_clock raw
  in
  Format.printf "@.### microbenchmarks - optimizer pass cost on the OLTP binary@.";
  Format.printf "%-50s %14s@." "pass" "ns/run";
  let results = benchmark () in
  Hashtbl.iter
    (fun name result ->
      match Analyze.OLS.estimates result with
      | Some [ est ] -> Format.printf "%-50s %14.0f@." name est
      | Some _ | None -> Format.printf "%-50s %14s@." name "-")
    results

(* The --chrome-trace export converts the telemetry JSONL stream; when the
   user did not ask to keep that stream, route it through a temp file. *)
let telemetry_sink (opts : Bench_options.t) =
  match (opts.telemetry_out, opts.chrome_trace) with
  | (Some _ as out), _ -> (out, false)
  | None, Some _ -> (Some (Filename.temp_file "olayout_telemetry" ".jsonl"), true)
  | None, None -> (None, false)

let bench (opts : Bench_options.t) =
  let jsonl_path, jsonl_is_temp = telemetry_sink opts in
  Option.iter Telemetry.open_jsonl_file jsonl_path;
  if jsonl_path <> None then begin
    (* Counter tracks for the Chrome trace: cumulative simulated i-cache
       misses (both engines) and the trace-cache footprint, sampled at
       span completion. *)
    Telemetry.watch_counter (Telemetry.counter "cachesim.icache_misses");
    Telemetry.watch_counter (Telemetry.counter "cachesim.stackdist.misses");
    Telemetry.watch_gauge (Telemetry.gauge "context.trace_cache_bytes")
  end;
  let scale = opts.scale in
  let scale_name = Front.scale_name scale in
  (* Timeline instrumentation is decided before any producer is built: the
     simulators capture their series handles at construction, so flipping
     the flag later would be a no-op. *)
  if opts.timeline_out <> None then Front.enable_timeline scale opts.timeline_window;
  Format.printf
    "olayout bench: reproducing Ramirez et al., ISCA 2001 (%s scale, %s sweep engine)@."
    scale_name
    (Olayout_cachesim.Battery.engine_name opts.engine);
  let (ctx, outcomes), total_seconds =
    Front.with_pool opts.jobs (fun pool ->
        Option.iter
          (fun p -> Format.printf "parallel schedule: %d domains@." (Pool.jobs p))
          pool;
        Telemetry.timed "bench.total" (fun () ->
            let ctx, setup_seconds =
              Telemetry.timed "bench.setup" (fun () ->
                  Context.create ~scale ~engine:opts.engine ())
            in
            Format.printf "workload built and profiled in %.1fs@." setup_seconds;
            let outcomes =
              Report.run ~selection:opts.selection ~trace_stats:opts.trace_stats ?pool
                ?retain_mb:opts.retain_mb ctx Format.std_formatter
            in
            if opts.micro then
              Telemetry.span "bench.micro" (fun () -> microbench ctx);
            (ctx, outcomes)))
  in
  Format.printf "@.bench total: %.1fs@." total_seconds;
  (* Resource headlines next to the total: peak trace-cache residency and
     the schedule's speedup estimate (serial-estimate / wall; 1.00 for a
     serial run by construction). *)
  let peak = Telemetry.gauge_value (Telemetry.gauge "context.trace_peak_bytes") in
  Format.printf "trace cache peak: %.1f MiB; parallel speedup: %.2fx@."
    (peak /. (1024.0 *. 1024.0))
    (Telemetry.gauge_value (Telemetry.gauge "par.speedup"));
  (* Score the paper's claims before any artifact snapshot, so the
     fidelity.* gauges land in BENCH_<scale>.json as gated metrics. *)
  let fidelity = Fidelity.of_registry () in
  Fidelity.publish_gauges fidelity;
  Format.printf "%a" Fidelity.pp fidelity;
  let artifact_path = ref None in
  if opts.bench_json || opts.bench_json_out <> None || opts.baseline <> None
  then begin
    let stats = Context.trace_stats ctx in
    let figures = List.map (fun (o : Report.outcome) -> o.figure) outcomes in
    let path =
      match opts.bench_json_out with
      | Some p -> p
      | None -> Bench_artifact.default_path ~scale:scale_name
    in
    Bench_artifact.write ~path ~scale:scale_name ~total_seconds
      ~trace_cache_bytes:stats.Context.trace_bytes ~figures;
    artifact_path := Some path;
    Format.printf "bench artifact written to %s@." path
  end;
  (* The TIMELINE artifact snapshots before --diagnose runs: the diagnose
     pass replays more of the stream, and only one CI leg diagnoses — the
     cross-leg byte-identity check needs every leg to freeze the series at
     the same point. *)
  Option.iter
    (fun path ->
      Format.printf "%a" Timeline.pp_summary ();
      Timeline.write_artifact ~path ~scale:scale_name;
      Format.printf "timeline artifact written to %s@." path)
    opts.timeline_out;
  let fig4 = Diagnose.preset_of_figure "fig4" in
  (* The EXPLAIN artifact freezes at the same point on every CI leg (after
     the TIMELINE snapshot, before the main leg's extra --diagnose replay):
     the provenance capture re-runs the pure layout pipeline and the
     scorecard measurement replays cached streams through the icache-backed
     Diag, so the bytes match across -j values and sweep engines. *)
  Option.iter
    (fun path ->
      let module Explain = Olayout_harness.Explain in
      let r = Explain.run ctx fig4 in
      List.iter
        (fun tbl -> Olayout_harness.Table.print Format.std_formatter tbl)
        (Explain.tables ~top:10 r);
      Explain.write_artifact ~path ~scale:scale_name r;
      Format.printf "explain artifact written to %s@." path)
    opts.explain_out;
  (* The --<id>-out artifacts (DRIFT, RELAYOUT): bound from the report's
     run of the experiment, or run once now when --only left it out.
     Emitted before --diagnose for the same cross-leg freeze reason as
     TIMELINE/EXPLAIN. *)
  List.iter
    (fun (id, path) ->
      Json.write_file path (Report.artifact outcomes ctx id ~scale:scale_name);
      Format.printf "%s artifact written to %s@." id path)
    opts.artifacts;
  if opts.diagnose then begin
    (* The DIAG artifact: diagnose the baseline layout at the headline
       geometry.  The icache-miss counter delta around the measurement is
       recorded so CI can assert classification totals equal the run's
       simulated misses (the diagnosed cache is the only icache fed). *)
    let combo = Spike.Base in
    let c_misses = Telemetry.counter "cachesim.icache_misses" in
    let before = Telemetry.value c_misses in
    let d = Diagnose.run ~combo ctx fig4 in
    let delta = Telemetry.value c_misses - before in
    List.iter
      (fun tbl -> Olayout_harness.Table.print Format.std_formatter tbl)
      (Diagnose.tables ~top:10 ~combo fig4 d);
    let path = Diagnose.default_path ~scale:scale_name in
    Diagnose.write_artifact ~path ~scale:scale_name ~combo ~preset:fig4
      ~icache_misses_delta:delta d;
    Format.printf "diagnostics artifact written to %s@." path
  end;
  if opts.telemetry_summary then Telemetry.pp_summary Format.std_formatter ();
  Telemetry.close_jsonl ();
  Option.iter
    (fun dst ->
      let src = Option.get jsonl_path in
      (try Chrome_trace.convert ~src ~dst
       with Chrome_trace.Convert_error msg ->
         Printf.eprintf "bench: --chrome-trace: %s\n" msg;
         exit 2);
      if jsonl_is_temp then Sys.remove src;
      Format.printf "chrome trace written to %s (load in Perfetto)@." dst)
    opts.chrome_trace;
  (* The baseline diff runs last so every artifact is on disk even when the
     gate trips.  Both sides load from disk: the fresh run's metrics go
     through the same writer precision as the baseline's. *)
  match opts.baseline with
  | None -> 0
  | Some baseline_path -> (
      match
        let old_art = Artifact.load_file baseline_path in
        let new_art = Artifact.load_file (Option.get !artifact_path) in
        Diff.compare_artifacts ?tolerance:opts.tolerance ~old_art ~new_art ()
      with
      | exception Artifact.Load_error msg ->
          Printf.eprintf "bench: --baseline: %s\n" msg;
          2
      | d ->
          Format.printf "%a" Diff.pp d;
          let failures = Diff.gate_failures d in
          let gate_failed = opts.gate && failures <> [] in
          let compare_path =
            match opts.compare_out with
            | Some p -> p
            | None -> Printf.sprintf "COMPARE_%s.json" scale_name
          in
          Json.write_file compare_path (Diff.to_json ~fidelity ~gated:opts.gate ~gate_failed d);
          Format.printf "compare artifact written to %s@." compare_path;
          if not gate_failed then 0
          else begin
            List.iter
              (fun (e : Diff.entry) ->
                Printf.eprintf "bench: gate: deterministic drift in %s (%s -> %s)\n"
                  e.Diff.e_path
                  (match e.Diff.e_old with
                  | Some v -> Printf.sprintf "%.12g" v
                  | None -> "absent")
                  (match e.Diff.e_new with
                  | Some v -> Printf.sprintf "%.12g" v
                  | None -> "absent"))
              failures;
            Printf.eprintf
              "bench: gate failed: %d deterministic metric(s) drifted from %s\n"
              (List.length failures) baseline_path;
            1
          end)

let () = exit (Front.eval (Bench_options.cmd bench))
