(** The command-line front end shared by [bench/main.exe] and the [olayout]
    CLI: every term and converter the two programs have in common, defined
    once.

    Usage errors are caught when arguments are parsed, before any workload
    is built: a malformed or out-of-range number, an unknown experiment
    id, figure, combo or engine, an output path whose directory does not
    exist, or a broken cross-flag rule.  The message names the flag and its
    valid values, and {!eval} exits with status {!usage_status}. *)

open Cmdliner

(** {1 Converters} *)

val at_least : int -> int Arg.conv
(** Integers [>= n]. *)

val at_least_list : int -> int list Arg.conv
(** Non-empty comma-separated lists of integers [>= n]. *)

val pow2 : int Arg.conv
(** Powers of two [>= 1] (cache geometry). *)

val out_path : string Arg.conv
(** An output file path: its directory must exist, and the path itself
    must not be a directory. *)

val combo_conv : Olayout_core.Spike.combo Arg.conv
(** Layout combinations by {!Olayout_core.Spike.combo_name}. *)

(** {1 Workload} *)

val scale : Olayout_harness.Context.scale Term.t
(** [--quick] selects {!Olayout_harness.Context.Quick}, otherwise
    [Full]. *)

val scale_name : Olayout_harness.Context.scale -> string
(** ["quick"] / ["full"]: the [<scale>] of artifact names and headers. *)

val seed : int Term.t
(** [--seed] (default 7). *)

val combo :
  ?optimized:bool ->
  default:Olayout_core.Spike.combo ->
  doc:string ->
  unit ->
  Olayout_core.Spike.combo Term.t
(** [--combo].  With [~optimized:true] the unoptimized [base] layout is
    rejected (explain, drift and relayout need a pass pipeline to run). *)

val figure : doc:string -> Olayout_harness.Diagnose.preset Term.t
(** [--figure ID] (default [fig4]), checked against
    {!Olayout_harness.Diagnose.presets}; [doc] is followed by the list of
    valid ids. *)

(** {1 Experiment schedule} *)

val selection : Olayout_harness.Report.selection Term.t
(** [--only IDS], each checked against
    {!Olayout_harness.Report.experiment_ids}; absent means [All]. *)

val jobs : int option Term.t
(** [-j/--jobs N|auto]: [None] serial, [Some 0] for ["auto"]. *)

val with_pool : int option -> (Olayout_par.Pool.t option -> 'a) -> 'a
(** [with_pool jobs f] runs [f] with the pool [jobs] asks for ([None] for a
    serial run) and shuts the pool down afterwards, even on raise. *)

val retain_mb : int option Term.t
(** [--retain-mb MB], [MB >= 0]. *)

val engine : Olayout_cachesim.Battery.engine Term.t
(** [--engine icache|stackdist] (default [stackdist]). *)

(** {1 Observability} *)

val trace_stats : bool Term.t
val telemetry_out : string option Term.t

val enable_timeline : Olayout_harness.Context.scale -> int option -> unit
(** Arm the timeline series with the given window width, or the scale's
    default (65536 instructions quick, 524288 full).  Must run before the
    context is built: simulators capture their series handles at
    construction. *)

(** {1 Artifacts and gates} *)

val output : ?names:string list -> doc:string -> unit -> string option Term.t
(** An optional output path, [-o/--output FILE] unless [names] says
    otherwise, validated by {!out_path}. *)

val output_or : default:string -> doc:string -> string Term.t
(** [-o/--output FILE] with a default path. *)

val gate : bool Term.t
(** [--gate]. *)

val tolerance : float option Term.t
(** [--tolerance FRACTION], [FRACTION >= 0]. *)

(** {1 Evaluation} *)

val usage_status : int
(** 2. *)

val eval : ?argv:string array -> ?err:Format.formatter -> int Cmd.t -> int
(** Evaluate a command to its exit status: the code the command returns,
    0 for [--help], {!usage_status} for every parse or term error. *)
