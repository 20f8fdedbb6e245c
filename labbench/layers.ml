(* Per-layer metrics of one traced iteration, read from the spans the
   benchmark put around its calls into each layer.  Times are in reference
   seconds: set-up spans scale by the set-up sample's calibration factor,
   pass spans by the pass's.  A metric of work a workload does not do (no
   re-layout ticks on the static workloads, no transactions in the DSS
   engine) reads 0. *)

let layers = [ "oltp"; "profile"; "core"; "exec"; "cachesim"; "perf" ]

let per_s work s = if s > 0.0 then work /. s else 0.0
let ms_pct p name f = 1000.0 *. f *. Meter.percentile p (Meter.samples name)
let or_zero v = if Float.is_nan v then 0.0 else v

(* Read right after set-up, before the meter is reset for the pass. *)
let setup_part ~raw_setup ~f_setup ~train_instrs =
  let train_s = Meter.total "oltp.train" *. f_setup in
  [
    ("oltp.create_s", Meter.total "oltp.create" *. f_setup);
    ("oltp.train_s", train_s);
    ("oltp.train_minstr_per_s", per_s (float_of_int train_instrs /. 1e6) train_s);
    ("bench.unattributed_s", (raw_setup -. Meter.covered ()) *. f_setup);
  ]
  @ List.map (fun l -> (Printf.sprintf "self.%s_s" l, Meter.self_time l *. f_setup)) layers

let pass_part ~raw_pass ~f_pass (out : Outcome.t) =
  let t name = Meter.total name *. f_pass in
  let count name = Option.value ~default:0.0 (List.assoc_opt name out.Outcome.counts) in
  let a = out.Outcome.analysis in
  let both f = float_of_int (f a.Analysis.base + f a.Analysis.opt) in
  let minstr f = both f /. 1e6 in
  let runs = both (fun s -> s.Analysis.runs) in
  let committed = count "db.committed" and aborted = count "db.aborted" in
  [
    ("core.pettis_hansen_s", t "core.pettis_hansen");
    ("core.ph_segments_per_s", per_s (count "core.segments") (t "core.pettis_hansen"));
    ("core.placement_s", t "core.placement");
    ("core.splitting_s", t "core.splitting");
    ("core.segments", count "core.segments");
    ("core.update_ms.p50", or_zero (ms_pct 50.0 "core.update" f_pass));
    ("core.update_ms.p90", or_zero (ms_pct 90.0 "core.update" f_pass));
    ("core.reuse_share", count "core.reuse_share");
    ("core.procs_replaced", count "core.procs_replaced");
    ("core.pass_invocations", count "core.pass_invocations");
    ("core.scratch_pass_invocations", count "core.scratch_pass_invocations");
    ("relayout.tick_ms.p50", or_zero (ms_pct 50.0 "relayout.tick" f_pass));
    ("relayout.tick_ms.p90", or_zero (ms_pct 90.0 "relayout.tick" f_pass));
    ("profile.merge_ms.p50", or_zero (ms_pct 50.0 "profile.merge" f_pass));
    ("profile.merge_ms.p90", or_zero (ms_pct 90.0 "profile.merge" f_pass));
    ("profile.merge_s", t "profile.merge");
    ("profile.windows", count "profile.windows");
    ("oltp.capture_s", t "oltp.capture");
    ( "oltp.capture_minstr_per_s",
      per_s (float_of_int out.Outcome.capture_instrs /. 1e6) (t "oltp.capture") );
    ("db.committed", committed);
    ("db.aborted", aborted);
    ("db.abort_share", per_s aborted (committed +. aborted));
    ("db.lock_waits", count "db.lock_waits");
    ("cachesim.sweep_s", t "cachesim.sweep");
    ("cachesim.sweep_minstr_per_s", per_s (minstr (fun s -> s.Analysis.app_instrs)) (t "cachesim.sweep"));
    ("perf.timing_s", t "perf.timing");
    ("perf.timing_minstr_per_s", per_s (minstr (fun s -> s.Analysis.instrs)) (t "perf.timing"));
    ("exec.trace_bytes", float_of_int a.Analysis.trace_bytes);
    ("exec.bytes_per_run", per_s (float_of_int a.Analysis.trace_bytes) runs);
    ("exec.replay_minstr_per_s", per_s (minstr (fun s -> s.Analysis.instrs)) (t "exec.replay"));
    ("exec.window_replay_s", t "exec.window_replay");
    ("bench.unattributed_s", (raw_pass -. Meter.covered ()) *. f_pass);
  ]
  @ List.map (fun l -> (Printf.sprintf "self.%s_s" l, Meter.self_time l *. f_pass)) layers

(* Sum the set-up and pass parts key by key, in first-seen order. *)
let combine parts =
  List.fold_left
    (fun acc (k, v) ->
      match List.assoc_opt k acc with
      | Some v0 -> List.map (fun (k', x) -> if k' = k then (k', v0 +. v) else (k', x)) acc
      | None -> acc @ [ (k, v) ])
    [] parts

(* Every per-layer metric the traced run prints, with its unit. *)
let units =
  [
    ("core.pettis_hansen_s", "s");
    ("core.ph_segments_per_s", "1/s");
    ("core.placement_s", "s");
    ("core.splitting_s", "s");
    ("core.segments", "count");
    ("core.update_ms.p50", "ms");
    ("core.update_ms.p90", "ms");
    ("core.reuse_share", "ratio");
    ("core.procs_replaced", "count");
    ("core.pass_invocations", "count");
    ("core.scratch_pass_invocations", "count");
    ("relayout.tick_ms.p50", "ms");
    ("relayout.tick_ms.p90", "ms");
    ("profile.merge_ms.p50", "ms");
    ("profile.merge_ms.p90", "ms");
    ("profile.merge_s", "s");
    ("profile.windows", "count");
    ("oltp.create_s", "s");
    ("oltp.train_s", "s");
    ("oltp.train_minstr_per_s", "Minstr/s");
    ("oltp.capture_s", "s");
    ("oltp.capture_minstr_per_s", "Minstr/s");
    ("db.committed", "count");
    ("db.aborted", "count");
    ("db.abort_share", "ratio");
    ("db.lock_waits", "count");
    ("cachesim.sweep_s", "s");
    ("cachesim.sweep_minstr_per_s", "Minstr/s");
    ("perf.timing_s", "s");
    ("perf.timing_minstr_per_s", "Minstr/s");
    ("exec.trace_bytes", "bytes");
    ("exec.bytes_per_run", "bytes");
    ("exec.replay_minstr_per_s", "Minstr/s");
    ("exec.window_replay_s", "s");
    ("self.oltp_s", "s");
    ("self.profile_s", "s");
    ("self.core_s", "s");
    ("self.exec_s", "s");
    ("self.cachesim_s", "s");
    ("self.perf_s", "s");
    ("bench.unattributed_s", "s");
    ("bench.trace_overhead_s", "s");
    ("bench.trace_overhead_spread_s", "s");
    ("bench.cal_ms", "ms");
    ("bench.raw_setup_s", "s");
    ("bench.raw_run_s", "s");
    ("bench.iterations", "count");
    ("bench.failed_share", "ratio");
  ]
