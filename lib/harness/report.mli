(** Run every experiment and print its tables — the full reproduction of the
    paper's evaluation section. *)

type selection =
  | All
  | Only of string list
      (** Ids from {!experiment_ids} (fig4 covers fig5, fig9 covers 10-11,
          fig12 covers 13). *)

val experiments : Experiment.t list
(** The registry, in report order: every experiment is declared here once.
    The bench's [--<id>-out] flags are generated from the entries that
    declare an artifact. *)

val experiment_ids : string list
(** The registry's ids, in report order. *)

type outcome = {
  figure : Olayout_telemetry.Bench_artifact.figure;
      (** Wall-clock (measured by the figure's span) and the telemetry
          deltas around it: the raw material of the [BENCH_<scale>.json]
          artifact. *)
  artifact : Experiment.artifact option;
      (** This run's result bound to the experiment's artifact writer. *)
}

val run :
  ?selection:selection ->
  ?trace_stats:bool ->
  ?pool:Olayout_par.Pool.t ->
  ?retain_mb:int ->
  Context.t ->
  Format.formatter ->
  outcome list
(** Executes the selected experiments and prints each experiment's tables
    (with wall-clock timings) in list order, returning one {!outcome} per
    executed experiment.  Each figure runs inside a telemetry span
    named [report.<id>], so span aggregates (and the JSONL sink, when
    attached) carry the same timings.  With [trace_stats] (default false),
    also prints one line per figure attributing its instruction streams to
    trace replay vs live simulation — runs/instrs replayed, replay
    throughput in Mruns/s — and a final trace-cache summary table.

    With a [pool] of 2+ jobs, replay-only figures whose streams were
    recorded by an earlier figure run as a dependency-aware parallel
    schedule on the pool's domains (live-walk figures stay on the
    dispatching domain, serialized first so they populate the trace cache);
    batteries additionally shard their replay across the pool.  Output
    order, per-figure attribution and every deterministic counter are
    identical to the serial run: task telemetry is captured in isolation
    and merged in list order.  Publishes the [par.*] gauges, including
    [par.speedup] (summed per-figure seconds over report wall time).

    [retain_mb] bounds trace-cache residency: after each figure (in list
    order), streams whose last scheduled consumer has run are dropped
    largest-first while the cache exceeds the threshold.  Peak residency is
    tracked by the [context.trace_peak_bytes] gauge either way.

    @raise Invalid_argument on unknown experiment ids (the message lists
    the valid ids). *)

val artifact : outcome list -> Context.t -> string -> Experiment.artifact
(** [artifact outcomes ctx id]: experiment [id]'s artifact, bound from its
    outcome when the report ran it, otherwise from one run through its
    registry record now.
    @raise Invalid_argument when [id] is unknown or writes no artifact. *)
