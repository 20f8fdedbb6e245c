(** Workload-drift observatory driver: windowed profile divergence and the
    layout-staleness matrix over a deterministic mid-run mix shift.

    Runs the OLTP server twice under {!Olayout_oltp.Schedule.rotation} with
    the measurement seed: pass A captures per-window profiles
    ({!Olayout_profile.Windowed}) and derives one layout per matrix phase;
    pass B renders the identical block path under every phase layout at
    once, recording each stream.  Each stream is then sliced by its own
    instruction clock and every (layout, phase) cell replays cold through
    the preset's cache geometry on the context's engine.

    The driver deliberately bypasses {!Context.measure}: the context trace
    cache is keyed by (combo, kernel, txns) only, and a schedule-shaped
    stream under that key would poison the other figures' replays. *)

module Spike = Olayout_core.Spike
module Observatory = Olayout_drift.Observatory

val default_window : int
(** Fine divergence-window width in source instructions (65536, matching
    the timeline default). *)

val default_phases : int
val default_top : int

val run :
  ?combo:Spike.combo ->
  ?phases:int ->
  ?window:int ->
  ?top:int ->
  Context.t ->
  Diagnose.preset ->
  Observatory.t
(** Default [combo] {!Spike.All}, [phases] 4, [window]
    {!default_window}, [top] 8.  [phases] is clamped to the number of
    captured windows.  Publishes the [drift.*] gauges and (while the
    timeline subsystem is enabled) the [drift.*] instruction-clock series
    as side effects, and caches the result for {!last}.
    @raise Invalid_argument for [combo = Base] (all matrix rows would be
    the source-order layout), [phases < 2], [window < 1] or [top < 1]. *)

val last : unit -> Observatory.t option
(** The most recent {!run} result in this process (the bench reuses the
    report experiment's run for [--drift-out] instead of re-running). *)

val tables : Observatory.t -> Table.t list
(** Report rendering: divergence sparkline table + staleness matrix. *)
