module Json = Olayout_telemetry.Json
module Telemetry = Olayout_telemetry.Telemetry
module Timeline = Olayout_telemetry.Timeline
module Incremental = Olayout_core.Incremental

(* The drift observatory's result record: per-window divergence series and
   the layout-staleness matrix, plus rendering and publication.  Everything
   numeric is an integer (permille for ratios, misses/instrs for cells) so
   the olayout-drift/v1 document is byte-identical across -j values and
   sweep engines — the CI legs cmp it. *)

type point = {
  p_window : int;  (* fine-window index on the instruction clock *)
  p_events : int;  (* block events profiled in the window *)
  p_l1_vs_prev : int;  (* permille; 0 for the first window *)
  p_l1_vs_train : int;
  p_jaccard_vs_prev : int;  (* similarity permille; 1000 for the first *)
  p_jaccard_vs_train : int;
  p_churn_vs_prev : int;
}

type cell = { misses : int; instrs : int }

type t = {
  o_figure : string;
  o_combo : string;
  o_window_instrs : int;
  o_top_k : int;
  o_points : point list;
  o_phase_names : string array;  (* length N: dominant schedule phase *)
  o_phase_events : int array;  (* profiled block events per phase *)
  o_rows : string array;  (* length N+1: layout sources (phases + train) *)
  o_cells : cell array array;  (* (N+1) rows x N replayed phases *)
  o_work : Incremental.work;
      (* layout-building work of the matrix rows: 1 full build + N
         incremental deltas vs the from-scratch counterfactual *)
}

let phases t = Array.length t.o_phase_names
let rows t = Array.length t.o_rows

let mpki_x100 c = if c.instrs <= 0 then 0 else c.misses * 100_000 / c.instrs

(* --- summary scalars --------------------------------------------------- *)

let fold_points t f init = List.fold_left f init t.o_points

let max_l1_vs_prev t = fold_points t (fun acc p -> max acc p.p_l1_vs_prev) 0
let max_l1_vs_train t = fold_points t (fun acc p -> max acc p.p_l1_vs_train) 0
let max_churn_vs_prev t = fold_points t (fun acc p -> max acc p.p_churn_vs_prev) 0

let min_jaccard_vs_train t =
  fold_points t (fun acc p -> min acc p.p_jaccard_vs_train) 1000

(* Diagonal vs off-diagonal of the phase-layout rows (the training-profile
   row is a reference, not part of the diagonal argument). *)
let diag_max_mpki_x100 t =
  let n = phases t in
  let acc = ref 0 in
  for i = 0 to n - 1 do
    acc := max !acc (mpki_x100 t.o_cells.(i).(i))
  done;
  !acc

let offdiag_max_mpki_x100 t =
  let n = phases t in
  let acc = ref 0 in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if i <> j then acc := max !acc (mpki_x100 t.o_cells.(i).(j))
    done
  done;
  !acc

let work_ratio_x100 (w : Incremental.work) =
  if w.Incremental.w_invocations <= 0 then 0
  else w.Incremental.w_scratch_invocations * 100 / w.Incremental.w_invocations

(* Shared with Closedloop: the relayout.* work delta as a JSON object. *)
let work_json (w : Incremental.work) =
  Json.Object
    [
      ("full_builds", Json.Int w.Incremental.w_full_builds);
      ("updates", Json.Int w.Incremental.w_updates);
      ("procs_replaced", Json.Int w.Incremental.w_procs_replaced);
      ("procs_reused", Json.Int w.Incremental.w_procs_reused);
      ("passes_run", Json.Int w.Incremental.w_passes_run);
      ("passes_skipped", Json.Int w.Incremental.w_passes_skipped);
      ("pass_invocations", Json.Int w.Incremental.w_invocations);
      ("scratch_pass_invocations", Json.Int w.Incremental.w_scratch_invocations);
      ("work_ratio_x100", Json.Int (work_ratio_x100 w));
    ]

(* --- artifact ---------------------------------------------------------- *)

let artifact_schema = "olayout-drift/v1"

let point_json p =
  Json.Object
    [
      ("window", Json.Int p.p_window);
      ("events", Json.Int p.p_events);
      ("l1_vs_prev_permille", Json.Int p.p_l1_vs_prev);
      ("l1_vs_train_permille", Json.Int p.p_l1_vs_train);
      ("jaccard_vs_prev_permille", Json.Int p.p_jaccard_vs_prev);
      ("jaccard_vs_train_permille", Json.Int p.p_jaccard_vs_train);
      ("rank_churn_permille", Json.Int p.p_churn_vs_prev);
    ]

let cell_json c =
  Json.Object
    [
      ("misses", Json.Int c.misses);
      ("instrs", Json.Int c.instrs);
      ("mpki_x100", Json.Int (mpki_x100 c));
    ]

(* Every numeric leaf nests under "drift" so each flattened metric path
   classifies as Deterministic in Diff (head segment "drift"); the document
   carries no timestamp, argv or engine name — the CI legs cmp it across
   -j values and across engines. *)
let to_json ~scale t =
  Json.Object
    [
      ("schema", Json.String artifact_schema);
      ("scale", Json.String scale);
      ("figure", Json.String t.o_figure);
      ("combo", Json.String t.o_combo);
      ( "drift",
        Json.Object
          [
            ("window_instrs", Json.Int t.o_window_instrs);
            ("top_k", Json.Int t.o_top_k);
            ("windows", Json.Int (List.length t.o_points));
            ("phases", Json.Int (phases t));
            ("series", Json.Array (List.map point_json t.o_points));
            ( "staleness",
              Json.Object
                [
                  ( "phases",
                    Json.Array
                      (List.init (phases t) (fun j ->
                           Json.Object
                             [
                               ("name", Json.String (Printf.sprintf "p%d" j));
                               ("mix", Json.String t.o_phase_names.(j));
                               ("events", Json.Int t.o_phase_events.(j));
                             ])) );
                  ( "rows",
                    Json.Array
                      (List.init (rows t) (fun i ->
                           Json.Object
                             [
                               ("name", Json.String t.o_rows.(i));
                               ( "cells",
                                 Json.Array
                                   (Array.to_list (Array.map cell_json t.o_cells.(i)))
                               );
                             ])) );
                ] );
            ("relayout", work_json t.o_work);
            ( "summary",
              Json.Object
                [
                  ("max_l1_vs_prev_permille", Json.Int (max_l1_vs_prev t));
                  ("max_l1_vs_train_permille", Json.Int (max_l1_vs_train t));
                  ("min_jaccard_vs_train_permille", Json.Int (min_jaccard_vs_train t));
                  ("max_rank_churn_permille", Json.Int (max_churn_vs_prev t));
                  ("diag_max_mpki_x100", Json.Int (diag_max_mpki_x100 t));
                  ("offdiag_max_mpki_x100", Json.Int (offdiag_max_mpki_x100 t));
                ] );
          ] );
    ]

let write_artifact ~path ~scale t =
  Json.write_file path (to_json ~scale t)

(* --- gauges ------------------------------------------------------------ *)

(* Published into the global registry so the BENCH artifact carries them
   under gauges.drift.* (head "gauges", leaf without a timing suffix ->
   Deterministic) and the baseline gate holds them to exact equality. *)
let publish_gauges t =
  let set name v =
    Telemetry.set_gauge (Telemetry.gauge name) (float_of_int v)
  in
  set "drift.windows" (List.length t.o_points);
  set "drift.phases" (phases t);
  set "drift.max_l1_vs_prev_permille" (max_l1_vs_prev t);
  set "drift.max_l1_vs_train_permille" (max_l1_vs_train t);
  set "drift.min_jaccard_vs_train_permille" (min_jaccard_vs_train t);
  set "drift.max_rank_churn_permille" (max_churn_vs_prev t);
  set "drift.staleness_diag_max_mpki_x100" (diag_max_mpki_x100 t);
  set "drift.staleness_offdiag_max_mpki_x100" (offdiag_max_mpki_x100 t);
  (* The staleness matrix's own layout-building economics: its N+1 rows
     cost 1 full build + N incremental deltas instead of N+1 pipelines. *)
  set "drift.relayout_procs_replaced" t.o_work.Incremental.w_procs_replaced;
  set "drift.relayout_procs_reused" t.o_work.Incremental.w_procs_reused;
  set "drift.relayout_passes_skipped" t.o_work.Incremental.w_passes_skipped;
  set "drift.relayout_pass_invocations" t.o_work.Incremental.w_invocations;
  set "drift.relayout_scratch_invocations"
    t.o_work.Incremental.w_scratch_invocations;
  set "drift.relayout_work_ratio_x100" (work_ratio_x100 t.o_work)

(* While the timeline subsystem is enabled, mirror the divergence series
   as Sample series on the instruction clock: they land in the TIMELINE
   artifact and (via the JSONL {"ev":"timeline"} events) in the Perfetto
   counter tracks next to the cachesim/oltp series. *)
let publish_timeline t =
  if Timeline.enabled () then begin
    let l1_prev = Timeline.series ~kind:Timeline.Sample "drift.l1_vs_prev_permille" in
    let l1_train = Timeline.series ~kind:Timeline.Sample "drift.l1_vs_train_permille" in
    let jac_train =
      Timeline.series ~kind:Timeline.Sample "drift.jaccard_vs_train_permille"
    in
    List.iter
      (fun p ->
        let pos = p.p_window * t.o_window_instrs in
        Timeline.sample l1_prev ~pos p.p_l1_vs_prev;
        Timeline.sample l1_train ~pos p.p_l1_vs_train;
        Timeline.sample jac_train ~pos p.p_jaccard_vs_train)
      t.o_points
  end

(* --- console rendering ------------------------------------------------- *)

let shade = Olayout_util.Console.shade

let pp_heatmap ppf t =
  let n = phases t in
  let vmax =
    Array.fold_left
      (fun acc row -> Array.fold_left (fun acc c -> max acc (mpki_x100 c)) acc row)
      0 t.o_cells
  in
  Format.fprintf ppf
    "@.### layout staleness (misses per 1k instrs; row = layout source, col = \
     replayed phase)@.";
  Format.fprintf ppf "%-10s" "layout";
  for j = 0 to n - 1 do
    Format.fprintf ppf "  %8s" (Printf.sprintf "p%d:%s" j t.o_phase_names.(j))
  done;
  Format.fprintf ppf "@.";
  Array.iteri
    (fun i row ->
      Format.fprintf ppf "%-10s" t.o_rows.(i);
      Array.iteri
        (fun j c ->
          let v = mpki_x100 c in
          let mark = if i = j && i < n then "*" else " " in
          Format.fprintf ppf "  %s%6.2f%s" (shade ~vmax v)
            (float_of_int v /. 100.0)
            mark)
        row;
      Format.fprintf ppf "@.")
    t.o_cells;
  Format.fprintf ppf
    "  * = layout replaying its own phase; diag max %.2f vs off-diag max %.2f \
     mpki@."
    (float_of_int (diag_max_mpki_x100 t) /. 100.0)
    (float_of_int (offdiag_max_mpki_x100 t) /. 100.0)

let pp_series ppf t =
  let arr f = Array.of_list (List.map f t.o_points) in
  Format.fprintf ppf "@.### profile divergence (window = %d instrs, top-%d hot set)@."
    t.o_window_instrs t.o_top_k;
  let line name values =
    Format.fprintf ppf "%-34s %5d %s@." name
      (Array.fold_left max 0 values)
      (Timeline.spark Timeline.Sample values)
  in
  Format.fprintf ppf "%-34s %5s %s@." "series" "max" "";
  line "l1_vs_prev_permille" (arr (fun p -> p.p_l1_vs_prev));
  line "l1_vs_train_permille" (arr (fun p -> p.p_l1_vs_train));
  line "rank_churn_permille" (arr (fun p -> p.p_churn_vs_prev));
  (* Jaccard is a similarity: plot drift = 1000 - similarity so every
     sparkline reads "higher = more drift". *)
  line "hotset_drift_permille (1000-jac)"
    (arr (fun p -> 1000 - p.p_jaccard_vs_train))

let pp ppf t =
  pp_series ppf t;
  pp_heatmap ppf t
