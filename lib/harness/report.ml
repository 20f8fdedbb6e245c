module Pool = Olayout_par.Pool
module Spike = Olayout_core.Spike
module Telemetry = Olayout_telemetry.Telemetry
module Bench_artifact = Olayout_telemetry.Bench_artifact

type selection = All | Only of string list

let app c = (c, `Base)
let kern c = (c, `Optimized)
let base_all = [ app Spike.Base; app Spike.All ]
let all_combos = List.map app Spike.all_combos

let experiments =
  let v = Experiment.v in
  [
    (* Fig 3 computes from the training profile, but it also records the
       (Base, All) streams up front: the recording walk is attributed to its
       figure (it used to land on fig4, leaving fig3 reporting
       runs_live = 0) and every later sweep figure replays + schedules onto
       the pool from the start. *)
    v ~id:"fig3" ~desc:"execution profile" ~streams:base_all
      (fun _ ctx -> Fig_footprint.run ctx)
      Fig_footprint.tables;
    v ~id:"fig4" ~desc:"cache/line sweep (figs 4-5)" ~streams:base_all
      (fun pool ctx -> Fig_line_sweep.run ?pool ctx)
      Fig_line_sweep.tables;
    v ~id:"fig6" ~desc:"associativity" ~streams:base_all
      (fun pool ctx -> Fig_assoc.run ?pool ctx)
      Fig_assoc.tables;
    v ~id:"fig7" ~desc:"optimization combinations" ~streams:all_combos
      (fun pool ctx -> Fig_combos.run ?pool ctx)
      Fig_combos.tables;
    v ~id:"fig8" ~desc:"sequence lengths" ~streams:base_all
      (fun _ ctx -> Fig_sequences.run ctx)
      Fig_sequences.tables;
    v ~id:"fig9" ~desc:"line usage (figs 9-11)" ~streams:base_all
      (fun _ ctx -> Fig_usage.run ctx)
      Fig_usage.tables;
    v ~id:"fig12" ~desc:"combined app+OS (figs 12-13)" ~streams:base_all
      (fun _ ctx -> Fig_combined.run ctx)
      Fig_combined.tables;
    v ~id:"fig14" ~desc:"iTLB and L2" ~live:true ~streams:base_all
      (fun _ ctx -> Fig_memsys.run ctx)
      Fig_memsys.tables;
    v ~id:"fig15" ~desc:"execution time" ~streams:all_combos
      (fun _ ctx -> Fig_exec_time.run ctx)
      Fig_exec_time.tables;
    v ~id:"intext" ~desc:"in-text measurements" ~streams:base_all
      (fun _ ctx -> Intext.run ctx)
      Intext.tables;
    v ~id:"ablations" ~desc:"design ablations" ~live:true
      ~streams:[ app Spike.All; kern Spike.All ]
      (fun _ ctx -> Ablations.run ctx)
      Ablations.tables;
    v ~id:"prefetch" ~desc:"extension: stream-buffer prefetch" ~streams:base_all
      (fun _ ctx -> Fig_prefetch.run ctx)
      Fig_prefetch.tables;
    v ~id:"joint" ~desc:"extension: joint app+kernel layout" ~live:true
      ~streams:[ app Spike.All; kern Spike.All ]
      (fun _ ctx -> Fig_joint.run ctx)
      Fig_joint.tables;
    v ~id:"bpred" ~desc:"extension: branch prediction" ~live:true ~streams:[]
      (fun _ ctx -> Fig_bpred.run ctx)
      Fig_bpred.tables;
    v ~id:"coloring" ~desc:"extension: cache-line coloring" ~live:true ~streams:base_all
      (fun _ ctx -> Fig_coloring.run ctx)
      Fig_coloring.tables;
    v ~id:"dss" ~desc:"extension: DSS contrast workload" ~live:true ~streams:base_all
      (fun _ ctx -> Fig_dss.run ctx)
      Fig_dss.tables;
    v ~id:"multiproc" ~desc:"extension: per-CPU caches" ~live:true ~streams:base_all
      (fun _ ctx -> Fig_multiproc.run ctx)
      Fig_multiproc.tables;
    v ~id:"temporal" ~desc:"extension: temporal ordering (Gloy et al.)" ~live:true
      ~streams:base_all
      (fun _ ctx -> Fig_temporal.run ctx)
      Fig_temporal.tables;
    Experiment.E Drift.experiment;
    Experiment.E Relayout.experiment;
  ]

let experiment_ids = List.map Experiment.id experiments

let find id =
  match List.find_opt (fun e -> Experiment.id e = id) experiments with
  | Some e -> e
  | None ->
      invalid_arg
        (Printf.sprintf "unknown experiment %s (valid ids: %s)" id
           (String.concat ", " experiment_ids))

type outcome = {
  figure : Bench_artifact.figure;
  artifact : Experiment.artifact option;
}

let mruns_per_s runs seconds =
  if seconds <= 0.0 then "-"
  else Printf.sprintf "%.1f Mruns/s" (float_of_int runs /. seconds /. 1e6)

(* One line per figure attributing its instruction streams to replay vs
   live simulation (deltas of the context's cumulative counters). *)
let print_figure_trace_stats ppf id (s0 : Context.trace_stats)
    (s1 : Context.trace_stats) =
  let traces = s1.Context.replayed_traces - s0.Context.replayed_traces in
  let runs = s1.Context.replayed_runs - s0.Context.replayed_runs in
  let instrs = s1.Context.replayed_instrs - s0.Context.replayed_instrs in
  let seconds = s1.Context.replay_seconds -. s0.Context.replay_seconds in
  let live_runs = s1.Context.live_runs - s0.Context.live_runs in
  let execs = s1.Context.live_executions - s0.Context.live_executions in
  if traces > 0 then
    Format.fprintf ppf
      "  trace: %s served from replayed trace — %d trace(s), %s runs / %s instrs (%s); %s runs simulated live (%d execution(s))@."
      id traces (Table.fmt_int runs) (Table.fmt_int instrs)
      (mruns_per_s runs seconds) (Table.fmt_int live_runs) execs
  else
    Format.fprintf ppf
      "  trace: %s simulated live — %s runs (%d execution(s)), no replay@." id
      (Table.fmt_int live_runs) execs

let trace_summary_table (s : Context.trace_stats) =
  let tbl =
    Table.create ~title:"trace cache summary" ~columns:[ "metric"; "value" ]
  in
  Table.add_row tbl [ "server executions (live)"; string_of_int s.Context.live_executions ];
  Table.add_row tbl [ "runs simulated live"; Table.fmt_int s.Context.live_runs ];
  Table.add_row tbl [ "instrs simulated live"; Table.fmt_int s.Context.live_instrs ];
  Table.add_row tbl [ "traces recorded"; string_of_int s.Context.recorded_traces ];
  Table.add_row tbl
    [
      "trace cache footprint";
      Printf.sprintf "%.1f MB" (float_of_int s.Context.trace_bytes /. 1048576.0);
    ];
  Table.add_row tbl [ "traces replayed"; string_of_int s.Context.replayed_traces ];
  Table.add_row tbl [ "runs replayed"; Table.fmt_int s.Context.replayed_runs ];
  Table.add_row tbl [ "instrs replayed"; Table.fmt_int s.Context.replayed_instrs ];
  Table.add_row tbl
    [
      "replay throughput";
      mruns_per_s s.Context.replayed_runs s.Context.replay_seconds;
    ];
  tbl

(* --- selection & schedule -------------------------------------------- *)

let select selection =
  match selection with
  | All -> experiments
  | Only ids ->
      List.iter (fun id -> ignore (find id)) ids;
      List.filter (fun e -> List.mem (Experiment.id e) ids) experiments

(* A figure can go to the pool only when it neither observes the walk nor
   needs a stream no earlier figure has provided (serial figures provide
   their declared streams by recording them on first use). *)
let schedule selected =
  let provided = ref [] in
  List.map
    (fun e ->
      let parallel =
        (not (Experiment.live e))
        && List.for_all (fun s -> List.mem s !provided) (Experiment.streams e)
      in
      List.iter
        (fun s -> if not (List.mem s !provided) then provided := s :: !provided)
        (Experiment.streams e);
      (e, parallel))
    selected

(* --- retention -------------------------------------------------------- *)

(* After figure [i] completes (in list order), every stream whose last
   declared consumer is [i] becomes releasable; while the cache exceeds the
   threshold, releasable streams are dropped largest-first.  Runs at the
   same points in list order whether or not a pool is in use, so the
   deterministic counters (and the peak gauge) cannot depend on -j. *)
type retention = {
  r_bytes : int;
  r_last : (Experiment.stream * int) list; (* stream -> last consumer index *)
  mutable r_releasable : Experiment.stream list;
}

let retention_of ~retain_mb scheduled =
  match retain_mb with
  | None -> None
  | Some mb ->
      let last = Hashtbl.create 16 in
      List.iteri
        (fun i (e, _) ->
          List.iter (fun s -> Hashtbl.replace last s i) (Experiment.streams e))
        scheduled;
      Some
        {
          r_bytes = mb * 1024 * 1024;
          r_last = Hashtbl.fold (fun s i acc -> (s, i) :: acc) last [];
          r_releasable = [];
        }

let apply_retention ctx r i =
  let freed_new =
    List.filter_map (fun (s, last) -> if last = i then Some s else None) r.r_last
  in
  r.r_releasable <- r.r_releasable @ freed_new;
  let resident = Context.resident_traces ctx in
  let bytes () =
    List.fold_left (fun acc (_, b) -> acc + b) 0 (Context.resident_traces ctx)
  in
  if bytes () > r.r_bytes then begin
    let sized =
      List.filter_map
        (fun s ->
          match List.assoc_opt s resident with
          | Some b when b > 0 -> Some (s, b)
          | _ -> None)
        r.r_releasable
      |> List.stable_sort (fun (_, a) (_, b) -> compare b a)
    in
    List.iter
      (fun ((combo, kernel), _) ->
        if bytes () > r.r_bytes then
          ignore (Context.drop_traces ctx ~kernel combo))
      sized;
    r.r_releasable <-
      List.filter
        (fun s -> List.mem_assoc s (Context.resident_traces ctx))
        r.r_releasable
  end

(* --- execution -------------------------------------------------------- *)

(* Everything needed to print and account one completed figure.  In
   parallel mode output is buffered per figure and emitted in list order,
   so the report reads identically to a serial run. *)
type completed = {
  c_output : string;
  c_outcome : outcome;
  c_trace_delta : Context.trace_stats * Context.trace_stats;
}

let zero_stats =
  {
    Context.live_executions = 0;
    live_runs = 0;
    live_instrs = 0;
    recorded_traces = 0;
    replayed_traces = 0;
    replayed_runs = 0;
    replayed_instrs = 0;
    replay_seconds = 0.0;
    trace_bytes = 0;
  }

let stats_of_snapshot snap =
  let c name = Telemetry.Isolated.snap_counter snap name in
  {
    Context.live_executions = c "context.live_executions";
    live_runs = c "context.live_runs";
    live_instrs = c "context.live_instrs";
    recorded_traces = c "context.traces_recorded";
    replayed_traces = c "context.traces_replayed";
    replayed_runs = c "context.replayed_runs";
    replayed_instrs = c "context.replayed_instrs";
    replay_seconds = Telemetry.Isolated.snap_gauge snap "context.replay_seconds";
    trace_bytes = 0;
  }

let completed e (output, seconds, artifact) (s0 : Context.trace_stats)
    (s1 : Context.trace_stats) =
  let figure =
    {
      Bench_artifact.id = Experiment.id e;
      desc = Experiment.desc e;
      seconds;
      runs_live = s1.Context.live_runs - s0.Context.live_runs;
      runs_replayed = s1.Context.replayed_runs - s0.Context.replayed_runs;
      instrs_live = s1.Context.live_instrs - s0.Context.live_instrs;
      instrs_replayed = s1.Context.replayed_instrs - s0.Context.replayed_instrs;
      live_executions = s1.Context.live_executions - s0.Context.live_executions;
      traces_replayed = s1.Context.replayed_traces - s0.Context.replayed_traces;
    }
  in
  { c_output = output; c_outcome = { figure; artifact }; c_trace_delta = (s0, s1) }

(* Render one figure's report block (header, tables, timing line) while
   running it under its span; returns the text, the timing and the bound
   artifact. *)
let render_figure pool ctx e =
  let id = Experiment.id e in
  let buf = Buffer.create 4096 in
  let bppf = Format.formatter_of_buffer buf in
  Format.fprintf bppf "@.### %s — %s@." id (Experiment.desc e);
  let (tables, artifact), seconds =
    Telemetry.timed ("report." ^ id) (fun () -> Experiment.exec e pool ctx)
  in
  List.iter (fun tbl -> Table.print bppf tbl) tables;
  Format.fprintf bppf "  (%s took %.1fs)@." id seconds;
  Format.pp_print_flush bppf ();
  (Buffer.contents buf, seconds, artifact)

let publish_par_gauges pool ~serial_estimate ~wall =
  (match pool with
  | Some p -> Pool.publish_stats p
  | None ->
      Telemetry.set_gauge (Telemetry.gauge "par.jobs") 1.0;
      Telemetry.set_gauge (Telemetry.gauge "par.tasks") 0.0;
      Telemetry.set_gauge (Telemetry.gauge "par.helped_tasks") 0.0;
      Telemetry.set_gauge (Telemetry.gauge "par.idle_seconds") 0.0);
  Telemetry.set_gauge
    (Telemetry.gauge "par.speedup")
    (if wall > 0.0 then serial_estimate /. wall else 1.0)

let run ?(selection = All) ?(trace_stats = false) ?pool ?retain_mb ctx ppf =
  let t_start = Unix.gettimeofday () in
  let selected = select selection in
  let jobs = match pool with Some p -> Pool.jobs p | None -> 1 in
  let scheduled = schedule selected in
  let retention = retention_of ~retain_mb scheduled in
  let finish_figure i (done_ : completed) =
    Format.pp_print_string ppf done_.c_output;
    (if trace_stats then
       let s0, s1 = done_.c_trace_delta in
       print_figure_trace_stats ppf done_.c_outcome.figure.id s0 s1);
    (match retention with Some r -> apply_retention ctx r i | None -> ());
    done_.c_outcome
  in
  let outcomes =
    if jobs = 1 then
      (* Serial: run, print and account each figure in order, exactly the
         pre-pool code path (modulo the per-figure output buffer). *)
      List.mapi
        (fun i (e, _) ->
          let s0 = Context.trace_stats ctx in
          let rendered = render_figure None ctx e in
          finish_figure i (completed e rendered s0 (Context.trace_stats ctx)))
        scheduled
    else begin
      let p = Option.get pool in
      (* Dispatch pass: pool-eligible figures are submitted as tasks;
         serial figures run here at their list position, so every stream a
         dispatched task replays was recorded before the dispatch. *)
      let pending =
        List.map
          (fun (e, parallel) ->
            if parallel then `Fut (e, Pool.submit p (fun () -> render_figure pool ctx e))
            else begin
              let s0 = Context.trace_stats ctx in
              let rendered = render_figure pool ctx e in
              `Done (completed e rendered s0 (Context.trace_stats ctx))
            end)
          scheduled
      in
      (* Collection pass, in list order: await each task (helping the pool
         while blocked), merge its telemetry snapshot — submission order ==
         list order, so the merge order is deterministic — and emit its
         buffered report block. *)
      List.mapi
        (fun i pending ->
          match pending with
          | `Done done_ -> finish_figure i done_
          | `Fut (e, fut) ->
              let rendered, snap = Pool.await_snapshot fut in
              let s1 =
                match snap with
                | Some snap -> stats_of_snapshot snap
                | None -> zero_stats
              in
              finish_figure i (completed e rendered zero_stats s1))
        pending
    end
  in
  if trace_stats then Table.print ppf (trace_summary_table (Context.trace_stats ctx));
  let wall = Unix.gettimeofday () -. t_start in
  let serial_estimate =
    List.fold_left (fun acc o -> acc +. o.figure.Bench_artifact.seconds) 0.0 outcomes
  in
  publish_par_gauges pool ~serial_estimate ~wall;
  outcomes

let artifact outcomes ctx id =
  match List.find_opt (fun o -> o.figure.Bench_artifact.id = id) outcomes with
  | Some { artifact = Some a; _ } -> a
  | _ -> (
      match Experiment.exec (find id) None ctx with
      | _, Some a -> a
      | _, None -> invalid_arg (Printf.sprintf "experiment %s writes no artifact" id))
