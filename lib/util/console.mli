(** Shared console glyph rendering for instruction-clock series.

    The sparkline resampler and the five-level shade scale used by the
    timeline summary, the drift observatory's staleness matrix and the
    relayout tables (the [timeline] / [drift] / [relayout] CLI
    subcommands). *)

val spark_width : int
(** Default sparkline width in glyph cells (60). *)

val spark : ?width:int -> [ `Sum | `Max ] -> int array -> string
(** Resample [values] to at most [width] buckets and render one block glyph
    per bucket, scaled to the bucket maximum.  [`Sum] buckets add their
    values (total work in the bucket's span — delta series); [`Max] buckets
    keep the peak (level series survive downsampling).  Empty input renders
    as [""]. *)

val shade : vmax:int -> int -> string
(** A five-level background shade for a heatmap cell holding [v] of scale
    [vmax] (blank through full block). *)
