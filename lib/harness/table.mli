(** Minimal aligned-text tables for the benchmark reports. *)

type t

val create : title:string -> columns:string list -> t
val add_row : t -> string list -> unit
val add_note : t -> string -> unit
(** Notes print under the table (paper-expected values, caveats). *)

val print : Format.formatter -> t -> unit
(** Columns are padded to their widest cell, measured in UTF-8 code
    points. *)

(** Cell formatting helpers. *)

val fmt_int : int -> string
(** Thousands-separated. *)

val fmt_pct : float -> string
(** [0.423] -> ["42.3%"]. *)

val fmt_ratio : float -> string
(** Two-decimal ratio, e.g. ["0.42"]. *)
