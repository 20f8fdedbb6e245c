module Json = Olayout_telemetry.Json
module Telemetry = Olayout_telemetry.Telemetry
module Timeline = Olayout_telemetry.Timeline
module Incremental = Olayout_core.Incremental
module Console = Olayout_util.Console

(* The closed-loop re-layout result record: one cadence sweep of the online
   BOLT-style loop.  The harness driver (Olayout_harness.Relayout) replays
   one drift schedule under an evolving layout — re-built from the profile
   delta every [cadence] windows — against the static training layout, with
   the instruction cache persisting across re-layout ticks so code-motion
   disruption (post-move cold misses) is part of the measurement.

   Everything numeric is an integer (misses, instrs, mpki scaled x100,
   counts), so the olayout-relayout/v1 document is byte-identical across
   -j values and sweep engines — the CI legs cmp it. *)

type point = {
  c_cadence : int;  (* windows between re-layout ticks *)
  c_relayouts : int;  (* incremental updates actually performed *)
  c_misses : int;  (* total misses over the replayed stream *)
  c_instrs : int;  (* instructions fed to the cache *)
  c_work : Incremental.work;  (* layout work of this cadence's loop *)
  c_window_misses : int array;  (* per-window miss deltas *)
}

type t = {
  r_figure : string;
  r_combo : string;
  r_window_instrs : int;
  r_windows : int;
  r_static : point;  (* never re-layout: the training layout throughout *)
  r_points : point list;  (* swept cadences, ascending *)
}

let mpki_x100 p =
  if p.c_instrs <= 0 then 0 else p.c_misses * 100_000 / p.c_instrs

(* --- summary scalars --------------------------------------------------- *)

(* Lowest total misses wins; ties go to the coarser (cheaper) cadence. *)
let best_point t =
  List.fold_left
    (fun best p -> if p.c_misses <= best.c_misses then p else best)
    t.r_static (List.rev t.r_points)

let best_cadence t = (best_point t).c_cadence

let best_mpki_x100 t = mpki_x100 (best_point t)
let static_mpki_x100 t = mpki_x100 t.r_static

(* The coarsest (cheapest) swept cadence that still beats never
   re-laying-out; 0 when no cadence pays for its own disruption. *)
let break_even_cadence t =
  List.fold_left
    (fun acc p -> if p.c_misses < t.r_static.c_misses then p.c_cadence else acc)
    0 t.r_points

(* Miss reduction of the best cadence vs the static layout, permille. *)
let saved_misses_permille t =
  if t.r_static.c_misses <= 0 then 0
  else
    (t.r_static.c_misses - (best_point t).c_misses)
    * 1000 / t.r_static.c_misses

let total_work t =
  List.fold_left
    (fun acc p -> Incremental.work_add acc p.c_work)
    t.r_static.c_work t.r_points

let work_ratio_x100 t = Observatory.work_ratio_x100 (total_work t)

(* --- artifact ---------------------------------------------------------- *)

let artifact_schema = "olayout-relayout/v1"

let point_json p =
  Json.Object
    [
      ("cadence", Json.Int p.c_cadence);
      ("relayouts", Json.Int p.c_relayouts);
      ("misses", Json.Int p.c_misses);
      ("instrs", Json.Int p.c_instrs);
      ("mpki_x100", Json.Int (mpki_x100 p));
      ("work", Observatory.work_json p.c_work);
      ( "window_misses",
        Json.Array
          (Array.to_list (Array.map (fun v -> Json.Int v) p.c_window_misses))
      );
    ]

(* Every numeric leaf nests under "relayout" so each flattened metric path
   classifies as Deterministic in Diff (head segment "relayout"); the
   document carries no timestamp, argv or engine name — the CI legs cmp it
   across -j values and across engines. *)
let to_json ~scale t =
  Json.Object
    [
      ("schema", Json.String artifact_schema);
      ("scale", Json.String scale);
      ("figure", Json.String t.r_figure);
      ("combo", Json.String t.r_combo);
      ( "relayout",
        Json.Object
          [
            ("window_instrs", Json.Int t.r_window_instrs);
            ("windows", Json.Int t.r_windows);
            ("cadences", Json.Int (List.length t.r_points));
            ("static", point_json t.r_static);
            ("points", Json.Array (List.map point_json t.r_points));
            ( "summary",
              Json.Object
                [
                  ("static_mpki_x100", Json.Int (static_mpki_x100 t));
                  ("best_mpki_x100", Json.Int (best_mpki_x100 t));
                  ("best_cadence", Json.Int (best_cadence t));
                  ("break_even_cadence", Json.Int (break_even_cadence t));
                  ("saved_misses_permille", Json.Int (saved_misses_permille t));
                  ("work", Observatory.work_json (total_work t));
                ] );
          ] );
    ]

let write_artifact ~path ~scale t =
  Json.write_file path (to_json ~scale t)

(* --- gauges ------------------------------------------------------------ *)

(* Published into the global registry so the BENCH artifact carries them
   under gauges.relayout.* (head "gauges", leaf without a timing suffix ->
   Deterministic) and the baseline gate holds them to exact equality. *)
let publish_gauges t =
  let set name v =
    Telemetry.set_gauge (Telemetry.gauge name) (float_of_int v)
  in
  let w = total_work t in
  set "relayout.windows" t.r_windows;
  set "relayout.cadences" (List.length t.r_points);
  set "relayout.static_mpki_x100" (static_mpki_x100 t);
  set "relayout.best_mpki_x100" (best_mpki_x100 t);
  set "relayout.best_cadence" (best_cadence t);
  set "relayout.break_even_cadence" (break_even_cadence t);
  set "relayout.saved_misses_permille" (saved_misses_permille t);
  set "relayout.loop_procs_replaced" w.Incremental.w_procs_replaced;
  set "relayout.loop_procs_reused" w.Incremental.w_procs_reused;
  set "relayout.loop_passes_skipped" w.Incremental.w_passes_skipped;
  set "relayout.loop_pass_invocations" w.Incremental.w_invocations;
  set "relayout.loop_scratch_invocations" w.Incremental.w_scratch_invocations;
  set "relayout.work_ratio_x100" (work_ratio_x100 t)

(* While the timeline subsystem is enabled, mirror the per-window miss
   series of the static layout and the best cadence as Delta series on the
   instruction clock: they land in the TIMELINE artifact and (via the
   JSONL events) in the Perfetto counter tracks. *)
let publish_timeline t =
  if Timeline.enabled () then begin
    let feed name values =
      let s = Timeline.series ~kind:Timeline.Delta name in
      Array.iteri
        (fun w v -> Timeline.sample s ~pos:(w * t.r_window_instrs) v)
        values
    in
    feed "relayout.static_misses" t.r_static.c_window_misses;
    feed "relayout.best_misses" (best_point t).c_window_misses
  end

(* --- console rendering ------------------------------------------------- *)

let pp_curve ppf t =
  Format.fprintf ppf
    "@.### miss rate vs re-layout cadence (%s, %s layout; cache persists \
     across ticks)@."
    t.r_figure t.r_combo;
  Format.fprintf ppf "%-10s %9s %9s %8s %8s %7s@." "cadence" "relayouts"
    "misses" "mpki" "work_x" "vs stat";
  let row name p =
    let ratio = Observatory.work_ratio_x100 p.c_work in
    let delta_permille =
      if t.r_static.c_misses <= 0 then 0
      else (p.c_misses - t.r_static.c_misses) * 1000 / t.r_static.c_misses
    in
    Format.fprintf ppf "%-10s %9d %9d %8.2f %8.2f %+6.1f%%@." name
      p.c_relayouts p.c_misses
      (float_of_int (mpki_x100 p) /. 100.0)
      (float_of_int ratio /. 100.0)
      (float_of_int delta_permille /. 10.0)
  in
  row "static" t.r_static;
  List.iter (fun p -> row (Printf.sprintf "%d" p.c_cadence) p) t.r_points;
  Format.fprintf ppf
    "  best cadence %d (%.2f mpki, %+.1f%% misses vs static), break-even %d; \
     incremental work %.2fx cheaper than scratch@."
    (best_cadence t)
    (float_of_int (best_mpki_x100 t) /. 100.0)
    (-.(float_of_int (saved_misses_permille t) /. 10.0))
    (break_even_cadence t)
    (float_of_int (work_ratio_x100 t) /. 100.0)

let pp_series ppf t =
  Format.fprintf ppf "@.### per-window misses (window = %d instrs)@."
    t.r_window_instrs;
  let line name values =
    Format.fprintf ppf "%-22s %9d %s@." name
      (Array.fold_left ( + ) 0 values)
      (Console.spark `Sum values)
  in
  Format.fprintf ppf "%-22s %9s %s@." "series" "total" "";
  line "static_misses" t.r_static.c_window_misses;
  line
    (Printf.sprintf "cadence_%d_misses" (best_cadence t))
    (best_point t).c_window_misses

let pp ppf t =
  pp_curve ppf t;
  pp_series ppf t
