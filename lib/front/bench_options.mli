(** The options of [bench/main.exe], parsed by one cmdliner term built from
    the shared {!Front} terms. *)

type t = {
  scale : Olayout_harness.Context.scale;
  selection : Olayout_harness.Report.selection;
  micro : bool;  (** false with [--no-micro] *)
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
  jobs : int option;  (** [None] serial; [Some 0] auto *)
  retain_mb : int option;
  bench_json_out : string option;
  engine : Olayout_cachesim.Battery.engine;
  timeline_out : string option;
  timeline_window : int option;
  explain_out : string option;
  drift_out : string option;
  relayout_out : string option;
}

val term : t Cmdliner.Term.t
(** Includes the cross-flag rules as term errors: [--gate] and
    [--tolerance] need [--baseline], [--timeline-window] needs
    [--timeline-out]. *)

val cmd : (t -> 'a) -> 'a Cmdliner.Cmd.t
(** The [bench] command running the given function on the parsed
    options. *)
