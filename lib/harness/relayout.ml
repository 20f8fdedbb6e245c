module Spike = Olayout_core.Spike
module Placement = Olayout_core.Placement
module Incremental = Olayout_core.Incremental
module Profile = Olayout_profile.Profile
module Windowed = Olayout_profile.Windowed
module Closedloop = Olayout_drift.Closedloop
module Schedule = Olayout_oltp.Schedule
module Server = Olayout_oltp.Server
module Battery = Olayout_cachesim.Battery
module Icache = Olayout_cachesim.Icache
module Render = Olayout_exec.Render
module Run = Olayout_exec.Run
module Telemetry = Olayout_telemetry.Telemetry

(* The closed-loop re-layout driver: how often must the online loop re-run
   the layout pipeline to keep up with a drifting transaction mix, and when
   does re-laying-out stop paying for its own disruption?

   One scheduled server execution (through the trace-cache-aware context
   path, like Drift's) captures the application block path once: the
   windowed profile slices and the raw (proc, block, arm) event sequence
   with its window boundaries.  Everything after that is offline and
   placement-independent — the block path never depends on layouts, so one
   capture serves every cadence:

   - the static row renders the whole stream under the context's training
     layout;
   - each swept cadence re-renders the same stream window by window,
     re-laying-out every [cadence] windows via an Incremental memo fed the
     merged profile of the windows since the previous tick (what an online
     profiler would have handed the loop), and switching the render to the
     new placement mid-stream.

   The instruction cache persists across re-layout ticks within a cadence
   (fresh per cadence), so the cold misses caused by moving code — the
   re-layout disruption the break-even cadence trades against staleness —
   are part of each cadence's miss total.  The run merger is flushed at
   every window boundary; splitting a fetch run at a boundary preserves
   the address sequence, so miss counts are unchanged and both battery
   engines stay byte-identical. *)

let default_window = Drift.default_window
let default_slots = Drift.default_phases
let default_cadences = [ 1; 2; 4; 8 ]

(* Growable int array: the captured event stream (three lanes) and the
   per-window start indices. *)
type vec = { mutable a : int array; mutable n : int }

let vec () = { a = Array.make 4096 0; n = 0 }

let push v x =
  if v.n = Array.length v.a then begin
    let b = Array.make (2 * v.n) 0 in
    Array.blit v.a 0 b 0 v.n;
    v.a <- b
  end;
  v.a.(v.n) <- x;
  v.n <- v.n + 1

let last_result : Closedloop.t option ref = ref None
let last () = !last_result

let run ?(combo = Spike.All) ?(cadences = default_cadences)
    ?(window = default_window) ?(slots = default_slots) ctx preset =
  if combo = Spike.Base then
    invalid_arg "Relayout.run: combo must name an optimized layout, not base";
  if window < 1 then invalid_arg "Relayout.run: window must be >= 1";
  if slots < 2 then invalid_arg "Relayout.run: slots must be >= 2";
  if cadences = [] then invalid_arg "Relayout.run: cadences must be non-empty";
  List.iter
    (fun c -> if c < 1 then invalid_arg "Relayout.run: cadences must be >= 1")
    cadences;
  let cadences = List.sort_uniq compare cadences in
  Telemetry.span "relayout" (fun () ->
      let schedule = Schedule.rotation ~slots in
      let train = Context.app_profile ctx in
      let prog = Profile.prog train in
      (* Pass A: one scheduled execution captures the windowed profiles and
         the raw application block path.  Window indexing replicates
         Windowed's clock (events belong to the window of their start
         position; positions advance by source-encoding size), so the event
         slices line up with the profile slices exactly. *)
      let wp = Windowed.create ~window prog in
      let ep = vec () and eb = vec () and ea = vec () in
      let starts = vec () in
      let pos = ref 0 in
      let capture ~proc ~block ~arm =
        let w = !pos / window in
        while starts.n <= w do
          push starts ep.n
        done;
        push ep proc;
        push eb block;
        push ea arm;
        let len =
          Olayout_ir.Block.source_instrs
            (Olayout_ir.Proc.block (Olayout_ir.Prog.proc prog proc) block)
        in
        pos := !pos + max len 1
      in
      let (_ : Server.result) =
        Context.measure_raw ctx ~schedule
          ~app_sinks:[ Windowed.sink wp; capture ]
          ~renders:[] ()
      in
      let n = Windowed.windows wp in
      (* Every captured window has a start index; cap with a sentinel. *)
      while starts.n < n do
        push starts ep.n
      done;
      push starts ep.n;
      let config =
        Icache.config ~size_kb:preset.Diagnose.size_kb
          ~line:preset.Diagnose.line ~assoc:preset.Diagnose.assoc ()
      in
      let engine = Context.engine ctx in
      (* Replay the captured stream under an evolving layout.  [cadence = 0]
         is the static row: the training layout throughout, no memo, no
         layout work booked. *)
      let replay cadence =
        let work0 = Incremental.work_counters () in
        let memo =
          if cadence = 0 then None
          else Some (Incremental.create (Incremental.Combo combo) train)
        in
        let placement =
          ref
            (match memo with
            | Some m -> Incremental.placement m
            | None -> Context.placement ctx combo)
        in
        let battery = Battery.create ~engine [ config ] in
        let fed = ref 0 in
        let merger =
          Render.merger ~emit:(fun run ->
              fed := !fed + run.Run.len;
              Battery.access_run battery run)
        in
        let render = ref (Render.create ~placement:!placement ~owner:Run.App merger) in
        let relayouts = ref 0 in
        let window_misses = Array.make (max n 1) 0 in
        let prev = ref 0 in
        for w = 0 to n - 1 do
          (match memo with
          | Some m when w > 0 && w mod cadence = 0 ->
              (* Re-layout tick: feed the loop the profile of the windows
                 since the previous tick, switch the render mid-stream.
                 The battery keeps its state — the moved code's cold misses
                 are the disruption cost. *)
              Render.flush merger;
              let p = Windowed.merged wp ~lo:(w - cadence) ~hi:w in
              placement := Incremental.update m p;
              render := Render.create ~placement:!placement ~owner:Run.App merger;
              incr relayouts
          | _ -> ());
          let sink = Render.sink !render in
          for i = starts.a.(w) to starts.a.(w + 1) - 1 do
            sink ~proc:ep.a.(i) ~block:eb.a.(i) ~arm:ea.a.(i)
          done;
          Render.flush merger;
          let m = Battery.misses battery config.Icache.name in
          window_misses.(w) <- m - !prev;
          prev := m
        done;
        {
          Closedloop.c_cadence = cadence;
          c_relayouts = !relayouts;
          c_misses = !prev;
          c_instrs = !fed;
          c_work =
            (if cadence = 0 then Incremental.work_zero
             else Incremental.work_sub (Incremental.work_counters ()) work0);
          c_window_misses = window_misses;
        }
      in
      let r =
        {
          Closedloop.r_figure = preset.Diagnose.fig;
          r_combo = Spike.combo_name combo;
          r_window_instrs = window;
          r_windows = n;
          r_static = replay 0;
          r_points = List.map replay cadences;
        }
      in
      Closedloop.publish_gauges r;
      Closedloop.publish_timeline r;
      last_result := Some r;
      r)

(* --- report tables ----------------------------------------------------- *)

let fmt_x100 v = Printf.sprintf "%.2f" (float_of_int v /. 100.0)

let curve_table r =
  let tbl =
    Table.create
      ~title:
        (Printf.sprintf
           "re-layout cadence sweep: %s layout, %d windows x %d instrs \
            (cache persists across ticks)"
           r.Closedloop.r_combo r.Closedloop.r_windows
           r.Closedloop.r_window_instrs)
      ~columns:[ "cadence"; "relayouts"; "misses"; "mpki"; "work_x" ]
  in
  let row name (p : Closedloop.point) =
    Table.add_row tbl
      [
        name;
        string_of_int p.Closedloop.c_relayouts;
        Table.fmt_int p.Closedloop.c_misses;
        fmt_x100 (Closedloop.mpki_x100 p);
        fmt_x100 (Olayout_drift.Observatory.work_ratio_x100 p.Closedloop.c_work);
      ]
  in
  row "static" r.Closedloop.r_static;
  List.iter
    (fun (p : Closedloop.point) ->
      row (string_of_int p.Closedloop.c_cadence) p)
    r.Closedloop.r_points;
  Table.add_note tbl
    (Printf.sprintf
       "best cadence %d (%s mpki vs static %s), break-even %d; incremental \
        work %sx cheaper than scratch"
       (Closedloop.best_cadence r)
       (fmt_x100 (Closedloop.best_mpki_x100 r))
       (fmt_x100 (Closedloop.static_mpki_x100 r))
       (Closedloop.break_even_cadence r)
       (fmt_x100 (Closedloop.work_ratio_x100 r)));
  tbl

let series_table r =
  let tbl =
    Table.create
      ~title:"per-window misses under the evolving layout"
      ~columns:[ "series"; "total"; "spark" ]
  in
  let line name values =
    Table.add_row tbl
      [
        name;
        Table.fmt_int (Array.fold_left ( + ) 0 values);
        Olayout_util.Console.spark `Sum values;
      ]
  in
  line "static_misses" r.Closedloop.r_static.Closedloop.c_window_misses;
  let best = Closedloop.best_point r in
  line
    (Printf.sprintf "cadence_%d_misses" best.Closedloop.c_cadence)
    best.Closedloop.c_window_misses;
  tbl

let tables r = [ curve_table r; series_table r ]
