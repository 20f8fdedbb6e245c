(** One experiment of the report, declared once: what it needs from the
    trace cache, how it runs, how it prints and — optionally — the
    machine-readable artifact it writes.  The report, the bench's
    [--<id>-out] flags and the CLI subcommands all go through this
    record. *)

type stream = Olayout_core.Spike.combo * [ `Base | `Optimized ]
(** A measurement stream in the context's trace cache: app combination
    plus which of the two context-owned kernels rendered alongside it. *)

type 'r spec = {
  id : string;
  desc : string;
  live : bool;
      (** The experiment observes or mutates the walk itself (block sinks,
          data refs, context switches, ad-hoc placements, own server runs)
          and must execute on the dispatching domain. *)
  streams : stream list;
      (** The streams it consumes (recording them first if absent).  Drives
          both the parallel schedule (an experiment goes to the pool only
          when every declared stream was provided by an earlier one) and
          trace retention (a stream is droppable after its last declared
          consumer).  Under-declaring is a determinism bug for replay-only
          experiments (the worker guard in {!Context} turns it into an
          error), merely wasteful for live ones (they re-record). *)
  run : Olayout_par.Pool.t option -> Context.t -> 'r;
  tables : 'r -> Table.t list;
  to_json : (scale:string -> 'r -> Olayout_telemetry.Json.t) option;
      (** The experiment's artifact document, when it has one. *)
}

type t = E : 'r spec -> t  (** An experiment of any result type. *)

val v :
  id:string ->
  desc:string ->
  ?live:bool ->
  streams:stream list ->
  (Olayout_par.Pool.t option -> Context.t -> 'r) ->
  ('r -> Table.t list) ->
  t
(** A packed experiment without an artifact; [live] defaults to false. *)

val id : t -> string
val desc : t -> string
val live : t -> bool
val streams : t -> stream list

type artifact = scale:string -> Olayout_telemetry.Json.t
(** One run's result bound to its experiment's [to_json]. *)

val artifact : 'r spec -> 'r -> artifact option
(** [None] when the experiment declares no artifact. *)

val has_artifact : t -> bool

val exec : t -> Olayout_par.Pool.t option -> Context.t -> Table.t list * artifact option
(** Run the experiment once: its report tables and its bound artifact. *)
