(* olayout: command-line front end for the code-layout reproduction.

   Subcommands:
     inspect      - build the synthetic binaries and show their structure
     optimize     - run the profiling phase and compare layout combinations
     simulate     - run the OLTP workload through a custom instruction cache
     report       - regenerate the paper's figures (same engine as bench/)
     timeline     - windowed metric series over the simulated instruction stream
     explain      - per-procedure layout scorecards (decisions, moves, regret)
     drift        - workload-drift observatory: divergence series + staleness matrix
     relayout     - closed-loop incremental re-layout: miss rate vs cadence
     compare      - diff two bench/diag artifacts, gate on deterministic drift
     chrome-trace - telemetry JSONL -> Perfetto-loadable trace-event JSON

   Running with no arguments (or "help") prints a one-line overview of
   every subcommand.  Flags shared with bench/main.exe come from
   Olayout_front.Front; every usage error (an unknown subcommand, a bad
   flag value) exits with status 2 before any workload is built. *)

open Cmdliner
module Front = Olayout_front.Front
module Context = Olayout_harness.Context
module Diagnose = Olayout_harness.Diagnose
module Report = Olayout_harness.Report
module Telemetry = Olayout_telemetry.Telemetry
module Table = Olayout_harness.Table
module Spike = Olayout_core.Spike
module Placement = Olayout_core.Placement
module Workload = Olayout_oltp.Workload
module Profile = Olayout_profile.Profile
module Binary = Olayout_codegen.Binary
module Icache = Olayout_cachesim.Icache
module Run = Olayout_exec.Run
module Prog = Olayout_ir.Prog
module Proc = Olayout_ir.Proc
module Block = Olayout_ir.Block

let combo_arg_value = Front.combo ~default:Spike.All ~doc:"Layout combination to inspect." ()

(* Training transactions for the commands that profile the workload
   themselves. *)
let train_txns = function Context.Quick -> 200 | Context.Full -> 2000

(* Write an artifact when -o was given and say where it went. *)
let write_artifact what write out =
  Option.iter
    (fun path ->
      write path;
      Format.printf "%s artifact written to %s@." what path)
    out

let print_tables = List.iter (fun tbl -> Table.print Format.std_formatter tbl)

(* A registry experiment run with the subcommand's own parameters: print
   the tables the report prints and write the artifact the bench writes. *)
let show_experiment (e : _ Olayout_harness.Experiment.spec) scale out r =
  print_tables (e.tables r);
  Option.iter
    (fun artifact ->
      write_artifact e.id
        (fun path ->
          Olayout_telemetry.Json.write_file path (artifact ~scale:(Front.scale_name scale)))
        out)
    (Olayout_harness.Experiment.artifact e r)

let telemetry_summary_arg ~doc = Arg.(value & flag & info [ "telemetry" ] ~doc)

(* --- inspect --- *)

let inspect seed =
  let w = Workload.create ~seed () in
  let app = Binary.prog (Workload.app w) and kernel = Binary.prog (Workload.kernel w) in
  Format.printf "%a@.%a@." Prog.pp_summary app Prog.pp_summary kernel;
  let profile, _ = Workload.train w ~txns:300 () in
  Format.printf "@.top 15 procedures by dynamic instructions (300-txn profile):@.";
  let per_proc =
    Array.map
      (fun (p : Proc.t) ->
        let d = ref 0 in
        Array.iter
          (fun (b : Block.t) ->
            d :=
              !d
              + Profile.block_count profile ~proc:p.Proc.id ~block:b.Block.id
                * Block.source_instrs b)
          p.Proc.blocks;
        (p.Proc.name, !d))
      app.Prog.procs
  in
  Array.sort (fun (_, a) (_, b) -> compare b a) per_proc;
  let total = float_of_int (Profile.dynamic_instrs profile) in
  Array.iteri
    (fun i (name, d) ->
      if i < 15 then
        Format.printf "  %-24s %6.2f%%@." name (100.0 *. float_of_int d /. total))
    per_proc;
  0

let inspect_cmd =
  Cmd.v
    (Cmd.info "inspect" ~doc:"Show the synthetic OLTP and kernel binaries.")
    Term.(const inspect $ Front.seed)

(* --- profile: train and save --- *)

let profile_cmd_run seed scale out =
  let w = Workload.create ~seed () in
  let profile, _ = Workload.train w ~txns:(train_txns scale) () in
  Profile.save_file out profile;
  Format.printf "wrote %s (%d block events, %s dynamic instructions)@." out
    (Profile.total_block_events profile)
    (Table.fmt_int (Profile.dynamic_instrs profile));
  0

let profile_cmd =
  let out_arg = Front.output_or ~default:"oltp.profile" ~doc:"Where to save the profile." in
  Cmd.v
    (Cmd.info "profile" ~doc:"Run the training phase and save the profile to a file.")
    Term.(const profile_cmd_run $ Front.seed $ Front.scale $ out_arg)

(* Load a saved profile or train a fresh one.  A malformed profile file is
   a usage error. *)
let obtain_profile w scale = function
  | Some path -> (
      try Profile.load_file (Binary.prog (Workload.app w)) path
      with Profile.Load_error msg ->
        Printf.eprintf "olayout: --profile-file: %s\n" msg;
        exit Front.usage_status)
  | None -> fst (Workload.train w ~txns:(train_txns scale) ())

let profile_file_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "profile-file" ] ~docv:"FILE" ~doc:"Reuse a profile saved by $(b,profile).")

(* --- disasm --- *)

let disasm seed scale profile_file combo procs summary =
  let w = Workload.create ~seed () in
  let profile = obtain_profile w scale profile_file in
  let placement = Spike.optimize profile combo in
  if summary then Format.printf "%a@." Olayout_core.Listing.pp_summary placement;
  List.iter
    (fun name ->
      match Prog.find_proc (Binary.prog (Workload.app w)) name with
      | Some p ->
          Olayout_core.Listing.pp_proc ~profile Format.std_formatter placement
            ~proc:p.Proc.id;
          Format.print_newline ()
      | None -> Format.printf "no such procedure: %s@." name)
    procs;
  0

let disasm_cmd =
  let procs_arg =
    Arg.(
      value & opt (list string) [ "op_buf_hit@0" ]
      & info [ "procs" ] ~docv:"NAMES" ~doc:"Procedures to list.")
  in
  let summary_arg =
    Arg.(value & flag & info [ "summary" ] ~doc:"Print the segment map first.")
  in
  Cmd.v
    (Cmd.info "disasm" ~doc:"List placed code with addresses and branch targets.")
    Term.(
      const disasm $ Front.seed $ Front.scale $ profile_file_arg $ combo_arg_value
      $ procs_arg $ summary_arg)

(* --- optimize --- *)

let optimize seed scale profile_file =
  let w = Workload.create ~seed () in
  let profile = obtain_profile w scale profile_file in
  let tbl =
    Table.create ~title:"layout combinations"
      ~columns:[ "combo"; "text KB"; "instrs"; "vs base instrs"; "far branches" ]
  in
  let base_instrs =
    Placement.program_instrs (Spike.optimize profile Spike.Base)
  in
  List.iter
    (fun combo ->
      let pl = Spike.optimize profile combo in
      Table.add_row tbl
        [
          Spike.combo_name combo;
          string_of_int (Placement.text_bytes pl / 1024);
          Table.fmt_int (Placement.program_instrs pl);
          Printf.sprintf "%+d" (Placement.program_instrs pl - base_instrs);
          string_of_int (Placement.long_branches pl ());
        ])
    Spike.all_combos;
  Format.printf "%a@." Table.print tbl;
  0

let optimize_cmd =
  Cmd.v
    (Cmd.info "optimize" ~doc:"Profile the workload and compare layout combinations.")
    Term.(const optimize $ Front.seed $ Front.scale $ profile_file_arg)

(* --- simulate --- *)

let simulate seed scale (cfg : Icache.config) combos app_only =
  let txns = match scale with Context.Quick -> 150 | Context.Full -> 1000 in
  let w = Workload.create ~seed () in
  let profile, _ = Workload.train w ~txns:(train_txns scale) () in
  let kernel_base = Workload.base_kernel w in
  let caches = List.map (fun combo -> (combo, Icache.create cfg)) combos in
  let renders =
    List.map
      (fun (combo, cache) ->
        {
          Olayout_oltp.Server.app_placement = Spike.optimize profile combo;
          kernel_placement = kernel_base;
          emit =
            (fun run ->
              if (not app_only) || run.Run.owner = Run.App then
                Icache.access_run cache run);
        })
      caches
  in
  let r =
    Olayout_oltp.Server.run ~app:(Workload.app w) ~kernel:(Workload.kernel w) ~txns
      ~seed:(seed + 1000) ~renders ()
  in
  Format.printf "%d transactions, %s instructions (%s stream)@." r.committed
    (Table.fmt_int (r.app_instrs + r.kernel_instrs))
    (if app_only then "application" else "combined");
  let tbl =
    Table.create
      ~title:
        (Printf.sprintf "i-cache %dKB / %dB line / %d-way" (cfg.size_bytes / 1024)
           cfg.line_bytes cfg.assoc)
      ~columns:[ "combo"; "misses"; "miss per 1k instrs"; "vs base" ]
  in
  let base_misses =
    match caches with (_, c) :: _ -> Icache.misses c | [] -> 0
  in
  List.iter
    (fun (combo, cache) ->
      let m = Icache.misses cache in
      Table.add_row tbl
        [
          Spike.combo_name combo;
          Table.fmt_int m;
          Printf.sprintf "%.2f" (1000.0 *. float_of_int m /. float_of_int r.app_instrs);
          (if base_misses = 0 then "-"
           else Table.fmt_pct (float_of_int m /. float_of_int base_misses));
        ])
    caches;
  Format.printf "%a@." Table.print tbl;
  0

(* Each dimension must be a power of two; the combination is then checked
   by Icache itself (line of at least one instruction, cache of at least
   one set), still before any workload is built. *)
let geometry_arg =
  let dim name default docv doc =
    Arg.(value & opt Front.pow2 default & info [ name ] ~docv ~doc)
  in
  let geometry size_kb line assoc =
    let cfg = Icache.config ~size_kb ~line ~assoc () in
    match Icache.validate cfg with
    | () -> `Ok cfg
    | exception Invalid_argument msg ->
        `Error (true, Printf.sprintf "--size-kb %d --line %d --assoc %d: %s" size_kb line assoc msg)
  in
  Term.(
    ret
      (const geometry
      $ dim "size-kb" 64 "KB" "Cache size in KB (a power of two)."
      $ dim "line" 128 "BYTES" "Line size in bytes (a power of two, at least 4)."
      $ dim "assoc" 1 "WAYS" "Associativity (a power of two)."))

let simulate_cmd =
  let combos_arg =
    Arg.(
      value
      & opt (list Front.combo_conv) [ Spike.Base; Spike.All ]
      & info [ "combos" ] ~docv:"COMBOS" ~doc:"Comma-separated layout combinations.")
  in
  let app_only_arg =
    Arg.(value & flag & info [ "app-only" ] ~doc:"Filter out the kernel stream.")
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Run the OLTP workload through an instruction cache.")
    Term.(
      const simulate $ Front.seed $ Front.scale $ geometry_arg $ combos_arg $ app_only_arg)

(* --- trace: dump an address trace (SimOS-style) --- *)

let trace seed scale profile_file combo out max_runs =
  let w = Workload.create ~seed () in
  let profile = obtain_profile w scale profile_file in
  let placement = Spike.optimize profile combo in
  let kernel = Workload.base_kernel w in
  let oc = open_out out in
  let written = ref 0 in
  Printf.fprintf oc "# olayout trace: %s layout; columns: owner addr(hex) instrs\n"
    (Spike.combo_name combo);
  let r =
    Olayout_oltp.Server.run ~app:(Workload.app w) ~kernel:(Workload.kernel w)
      ~txns:(match scale with Context.Quick -> 50 | Context.Full -> 300)
      ~seed:(seed + 2000)
      ~renders:
        [
          {
            Olayout_oltp.Server.app_placement = placement;
            kernel_placement = kernel;
            emit =
              (fun run ->
                if !written < max_runs then begin
                  incr written;
                  Printf.fprintf oc "%c %x %d\n"
                    (match run.Run.owner with Run.App -> 'A' | Run.Kernel -> 'K')
                    run.Run.addr run.Run.len
                end);
          };
        ]
      ()
  in
  close_out oc;
  Format.printf "wrote %d fetch runs (of %s instructions executed) to %s@." !written
    (Table.fmt_int (r.app_instrs + r.kernel_instrs))
    out;
  0

let trace_cmd =
  let out_arg = Front.output_or ~default:"trace.txt" ~doc:"Output file." in
  let max_arg =
    Arg.(
      value
      & opt (Front.at_least 0) 200_000
      & info [ "max-runs" ] ~docv:"N" ~doc:"Stop after N fetch runs.")
  in
  Cmd.v
    (Cmd.info "trace" ~doc:"Dump the instruction-fetch trace under a layout.")
    Term.(
      const trace $ Front.seed $ Front.scale $ profile_file_arg $ combo_arg_value $ out_arg
      $ max_arg)

(* --- diagnose --- *)

let diagnose seed scale preset combo top out telemetry =
  let ctx = Context.create ~scale ~seed () in
  let c_misses = Telemetry.counter "cachesim.icache_misses" in
  let before = Telemetry.value c_misses in
  let d = Diagnose.run ~combo ctx preset in
  let delta = Telemetry.value c_misses - before in
  print_tables (Diagnose.tables ~top ~combo preset d);
  write_artifact "diagnostics"
    (fun path ->
      Diagnose.write_artifact ~path ~scale:(Front.scale_name scale) ~combo ~preset
        ~icache_misses_delta:delta d)
    out;
  if telemetry then Telemetry.pp_summary Format.std_formatter ();
  0

let top_arg ~default ~docv ~doc =
  Arg.(value & opt (Front.at_least 1) default & info [ "top" ] ~docv ~doc)

let diagnose_cmd =
  (* Unlike [disasm]/[simulate], diagnosing defaults to the unoptimized
     layout: the point is to see the conflicts the optimizations remove. *)
  Cmd.v
    (Cmd.info "diagnose"
       ~doc:
         "Classify instruction-cache misses (compulsory/capacity/conflict) and \
          attribute them to code segments.")
    Term.(
      const diagnose $ Front.seed $ Front.scale
      $ Front.figure
          ~doc:
            "Figure geometry to diagnose: runs the workload through that figure's \
             cache with miss classification, per-segment attribution and conflict \
             matrices."
      $ Front.combo ~default:Spike.Base ~doc:"Layout combination to diagnose." ()
      $ top_arg ~default:10 ~docv:"N" ~doc:"Rows per attribution table."
      $ Front.output ~doc:"Also write the machine-readable DIAG artifact to $(docv)." ()
      $ telemetry_summary_arg ~doc:"Print the telemetry summary after the report.")

(* --- timeline --- *)

let timeline seed scale preset combo window engine out =
  let module Timeline = Olayout_telemetry.Timeline in
  (* Enabled before the context exists: the simulators capture their
     series handles at construction. *)
  Front.enable_timeline scale window;
  let ctx = Context.create ~scale ~seed ~engine () in
  Olayout_harness.Phase_timeline.run ~combo ~engine ctx preset;
  Format.printf "%a" Timeline.pp_summary ();
  write_artifact "timeline"
    (fun path -> Timeline.write_artifact ~path ~scale:(Front.scale_name scale))
    out;
  0

let timeline_cmd =
  let window_arg =
    Arg.(
      value
      & opt (some (Front.at_least 1)) None
      & info [ "window" ] ~docv:"INSTRS"
          ~doc:
            "Window width in simulated instructions (default 65536 with \
             $(b,--quick), 524288 otherwise).")
  in
  Cmd.v
    (Cmd.info "timeline"
       ~doc:
         "Windowed metric series over the simulated instruction stream: \
          per-window cache misses, working set and transaction mix for one \
          figure geometry, printed as sparklines.")
    Term.(
      const timeline $ Front.seed $ Front.scale
      $ Front.figure ~doc:"Figure geometry to trace over the instruction clock."
      $ Front.combo ~default:Spike.Base
          ~doc:"Layout combination to trace (default the unoptimized base)." ()
      $ window_arg $ Front.engine
      $ Front.output ~doc:"Also write the olayout-timeline/v1 artifact to $(docv)." ())

(* --- explain --- *)

let explain seed scale preset combo top out =
  let module Explain = Olayout_harness.Explain in
  let ctx = Context.create ~scale ~seed () in
  let r = Explain.run ~combo ctx preset in
  print_tables (Explain.tables ~top r);
  write_artifact "explain"
    (fun path -> Explain.write_artifact ~path ~scale:(Front.scale_name scale) r)
    out;
  0

let explain_cmd =
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Per-procedure layout scorecards: what each optimization pass \
          decided, where every procedure moved, and what that did to its \
          miss count (base vs optimized, ranked by layout regret).")
    Term.(
      const explain $ Front.seed $ Front.scale
      $ Front.figure ~doc:"Cache geometry the scorecard measures under."
      $ Front.combo ~optimized:true ~default:Spike.All
          ~doc:"Optimized layout to explain against base (any combo except $(b,base))." ()
      $ top_arg ~default:10 ~docv:"N" ~doc:"Scorecard rows to print."
      $ Front.output ~doc:"Also write the olayout-explain/v1 artifact to $(docv)." ())

(* --- drift --- *)

let drift seed scale preset combo phases top out =
  let module Drift = Olayout_harness.Drift in
  let ctx = Context.create ~scale ~seed () in
  show_experiment Drift.experiment scale out (Drift.run ~combo ~phases ~top ctx preset);
  0

let drift_cmd =
  let windows_arg =
    Arg.(
      value
      & opt (Front.at_least 2) Olayout_harness.Drift.default_phases
      & info [ "windows" ] ~docv:"N"
          ~doc:
            "Profile phases in the staleness matrix (at least 2): the mix-shift \
             schedule rotates through $(docv) slots and one layout is derived per \
             phase.")
  in
  Cmd.v
    (Cmd.info "drift"
       ~doc:
         "Workload-drift observatory: run the OLTP server under a \
          deterministic mid-run mix shift, chart per-window profile \
          divergence as sparklines, and replay every (phase layout, phase \
          slice) pairing into a shaded layout-staleness matrix.")
    Term.(
      const drift $ Front.seed $ Front.scale
      $ Front.figure ~doc:"Cache geometry the staleness matrix replays under."
      $ Front.combo ~optimized:true ~default:Spike.All
          ~doc:"Layout algorithm applied per phase (any combo except $(b,base))." ()
      $ windows_arg
      $ top_arg ~default:8 ~docv:"K" ~doc:"Hot-set size for the Jaccard and rank-churn series."
      $ Front.output ~doc:"Also write the olayout-drift/v1 artifact to $(docv)." ())

(* --- relayout --- *)

let relayout seed scale preset combo cadences slots out =
  let module Relayout = Olayout_harness.Relayout in
  let ctx = Context.create ~scale ~seed () in
  show_experiment Relayout.experiment scale out
    (Relayout.run ~combo ~cadences ~slots ctx preset);
  0

let relayout_cmd =
  let module Relayout = Olayout_harness.Relayout in
  let cadences_arg =
    Arg.(
      value
      & opt (Front.at_least_list 1) Relayout.default_cadences
      & info [ "cadences" ] ~docv:"N,N,..."
          ~doc:
            "Re-layout cadences to sweep, in windows between ticks; a static \
             never-re-layout row is always included.")
  in
  let slots_arg =
    Arg.(
      value
      & opt (Front.at_least 2) Relayout.default_slots
      & info [ "slots" ] ~docv:"N"
          ~doc:"Mix-shift schedule slots the replayed run rotates through (at least 2).")
  in
  Cmd.v
    (Cmd.info "relayout"
       ~doc:
         "Closed-loop incremental re-layout: replay a drifting transaction \
          mix under a layout that is rebuilt from the profile delta every N \
          windows, charting miss rate against re-layout cadence (the cache \
          persists across ticks, so re-layout disruption counts) and \
          reporting the break-even cadence and the incremental engine's \
          work savings.")
    Term.(
      const relayout $ Front.seed $ Front.scale
      $ Front.figure ~doc:"Cache geometry the cadence sweep replays under."
      $ Front.combo ~optimized:true ~default:Spike.All
          ~doc:"Layout algorithm the loop re-runs per tick (any combo except $(b,base))." ()
      $ cadences_arg $ slots_arg
      $ Front.output ~doc:"Also write the olayout-relayout/v1 artifact to $(docv)." ())

(* --- report --- *)

let report seed scale selection trace_stats telemetry telemetry_out jobs retain_mb engine =
  Option.iter Telemetry.open_jsonl_file telemetry_out;
  let ctx = Context.create ~scale ~seed ~engine () in
  Front.with_pool jobs (fun pool ->
      ignore
        (Report.run ~selection ~trace_stats ?pool ?retain_mb ctx Format.std_formatter
          : Report.outcome list));
  if telemetry then Telemetry.pp_summary Format.std_formatter ();
  Telemetry.close_jsonl ();
  0

let report_cmd =
  Cmd.v
    (Cmd.info "report" ~doc:"Regenerate the paper's figures.")
    Term.(
      const report $ Front.seed $ Front.scale $ Front.selection $ Front.trace_stats
      $ telemetry_summary_arg
          ~doc:
            "After the report, print the telemetry summary: span aggregates \
             (count, total and max wall seconds per span path) and the \
             counter/gauge/histogram registry."
      $ Front.telemetry_out $ Front.jobs $ Front.retain_mb $ Front.engine)

(* --- compare: diff two run artifacts --- *)

let compare_artifacts old_path new_path tolerance gate gate_timing out fidelity
    ignore_prefixes =
  let module Artifact = Olayout_regress.Artifact in
  let module Diff = Olayout_regress.Diff in
  let module Fidelity = Olayout_regress.Fidelity in
  match
    let old_art = Artifact.load_file old_path in
    let new_art = Artifact.load_file new_path in
    Diff.compare_artifacts ?tolerance ~ignore_prefixes ~old_art ~new_art ()
  with
  | exception Artifact.Load_error msg ->
      Printf.eprintf "olayout: compare: %s\n" msg;
      1
  | d ->
      Format.printf "%a" Diff.pp d;
      let fid =
        (* Fidelity scores the *new* side; only bench artifacts carry the
           fig.* gauges the claims read. *)
        if fidelity then Some (Fidelity.of_artifact d.Diff.new_art) else None
      in
      Option.iter (fun f -> Format.printf "%a" Fidelity.pp f) fid;
      let failures = Diff.gate_failures ~timing:gate_timing d in
      let gate_failed = gate && failures <> [] in
      write_artifact "compare"
        (fun path ->
          Olayout_telemetry.Json.write_file path
            (Diff.to_json ?fidelity:fid ~gated:gate ~gate_failed d))
        out;
      if gate_failed then begin
        List.iter
          (fun (e : Diff.entry) ->
            Printf.eprintf "olayout: gate: %s in %s\n"
              (match e.Diff.e_status with
              | Diff.Drift -> "deterministic drift"
              | _ -> "timing drift beyond tolerance")
              e.Diff.e_path)
          failures;
        1
      end
      else 0

let compare_cmd =
  let old_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"OLD" ~doc:"Baseline artifact (BENCH_*.json or DIAG_*.json).")
  in
  let new_arg =
    Arg.(
      required
      & pos 1 (some file) None
      & info [] ~docv:"NEW" ~doc:"Artifact to compare against $(i,OLD).")
  in
  let gate_timing_arg =
    Arg.(
      value & flag
      & info [ "gate-timing" ]
          ~doc:
            "With $(b,--gate), also fail on timing metrics beyond the \
             tolerance (off by default: wall-clock measures the machine as \
             much as the code).")
  in
  let fidelity_arg =
    Arg.(
      value & flag
      & info [ "fidelity" ]
          ~doc:
            "Score the new artifact against the paper's headline claims and \
             include the scoreboard in the output.")
  in
  let ignore_arg =
    Arg.(
      value & opt_all string []
      & info [ "ignore" ] ~docv:"PREFIX"
          ~doc:
            "Drop metric paths starting with $(docv) from both sides before \
             comparing (repeatable).  The cross-engine CI leg uses \
             $(b,--ignore counters.cachesim.) to gate two engines' artifacts \
             on everything except their engine-specific simulator counters.")
  in
  Cmd.v
    (Cmd.info "compare"
       ~doc:
         "Diff two run artifacts: deterministic metrics (simulation counters) \
          gate on exact equality, timing metrics on a relative tolerance.")
    Term.(
      const compare_artifacts $ old_arg $ new_arg $ Front.tolerance $ Front.gate
      $ gate_timing_arg
      $ Front.output ~doc:"Write the olayout-compare/v1 JSON artifact to $(docv)." ()
      $ fidelity_arg $ ignore_arg)

(* --- chrome-trace: telemetry JSONL -> trace-event JSON --- *)

let chrome_trace src dst =
  let module Chrome_trace = Olayout_regress.Chrome_trace in
  match Chrome_trace.convert ~src ~dst with
  | () ->
      Format.printf
        "chrome trace written to %s (open in https://ui.perfetto.dev or \
         chrome://tracing)@."
        dst;
      0
  | exception Chrome_trace.Convert_error msg ->
      Printf.eprintf "olayout: chrome-trace: %s\n" msg;
      1

let chrome_trace_cmd =
  let src_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"JSONL"
          ~doc:
            "Telemetry JSONL stream (written by $(b,report --telemetry-out) \
             or $(b,bench --telemetry-out)).")
  in
  Cmd.v
    (Cmd.info "chrome-trace"
       ~doc:
         "Convert a telemetry JSONL stream into a Chrome trace-event file: one \
          track per figure phase, counter tracks for watched instruments.")
    Term.(
      const chrome_trace $ src_arg
      $ Front.output_or ~default:"trace.json" ~doc:"Output trace-event file.")

(* --- entry point --- *)

(* One line per subcommand, in the order they appear in the group. *)
let overview =
  [
    ("inspect", "build the synthetic binaries and show their structure");
    ("profile", "run the training phase and save the profile to a file");
    ("disasm", "list placed code with addresses and branch targets");
    ("optimize", "profile the workload and compare layout combinations");
    ("simulate", "run the OLTP workload through an instruction cache");
    ("trace", "dump the instruction-fetch trace under a layout");
    ("diagnose", "classify i-cache misses and attribute them to code segments");
    ("timeline", "windowed metric series over the simulated instruction clock");
    ("explain", "per-procedure layout scorecards (decisions, moves, regret)");
    ("drift", "workload-drift observatory: divergence series + staleness matrix");
    ("relayout", "closed-loop incremental re-layout: miss rate vs cadence");
    ("report", "regenerate the paper's figures");
    ("compare", "diff two run artifacts, gate on deterministic drift");
    ("chrome-trace", "telemetry JSONL -> Perfetto-loadable trace-event JSON");
    ("help", "show this overview");
  ]

let print_overview () =
  print_endline "olayout — code layout optimizations for transaction processing workloads";
  print_newline ();
  List.iter (fun (name, doc) -> Printf.printf "  %-13s %s\n" name doc) overview;
  print_newline ();
  print_endline "Run 'olayout SUBCOMMAND --help' for that subcommand's flags.";
  0

let () =
  let overview_term = Term.(const print_overview $ const ()) in
  let doc = "code layout optimizations for transaction processing workloads" in
  exit
    (Front.eval
       (Cmd.group ~default:overview_term (Cmd.info "olayout" ~doc)
          [
            inspect_cmd; profile_cmd; disasm_cmd; optimize_cmd; simulate_cmd; trace_cmd;
            diagnose_cmd; timeline_cmd; explain_cmd; drift_cmd; relayout_cmd;
            report_cmd; compare_cmd; chrome_trace_cmd;
            Cmd.v (Cmd.info "help" ~doc:"Show the subcommand overview.") overview_term;
          ]))
