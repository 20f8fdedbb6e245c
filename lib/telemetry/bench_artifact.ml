(* Machine-readable run summary: the perf baseline artifact every
   optimisation PR diffs against (BENCH_<scale>.json).  Everything here is
   read back out of the telemetry registry except the per-figure numbers,
   which the report driver hands over explicitly (they are deltas around
   each figure, which only the driver can attribute). *)

type figure = {
  id : string;
  desc : string;
  seconds : float;
  runs_live : int;
  runs_replayed : int;
  instrs_live : int;
  instrs_replayed : int;
  live_executions : int;
  traces_replayed : int;
}

let schema = "olayout-bench/v1"

(* Figures with zero runs (or a zero-duration clock) omit the field
   entirely: a null would make every downstream consumer special-case a
   non-value, and standard JSON tooling treats absent and null
   differently.  The compare loader stays tolerant of old artifacts that
   still carry the null. *)
let mruns_per_s runs seconds =
  if seconds <= 0.0 || runs = 0 then None
  else Some (Json.Float (float_of_int runs /. seconds /. 1e6))

let opt_field name = function Some v -> [ (name, v) ] | None -> []

let figure_json f =
  Json.Object
    ([
       ("id", Json.String f.id);
       ("desc", Json.String f.desc);
       ("seconds", Json.Float f.seconds);
       ("runs_live", Json.Int f.runs_live);
       ("runs_replayed", Json.Int f.runs_replayed);
       ("instrs_live", Json.Int f.instrs_live);
       ("instrs_replayed", Json.Int f.instrs_replayed);
       ("live_executions", Json.Int f.live_executions);
       ("traces_replayed", Json.Int f.traces_replayed);
     ]
    @ opt_field "mruns_per_s" (mruns_per_s (f.runs_live + f.runs_replayed) f.seconds))

let gc_json () =
  let s = Gc.quick_stat () in
  Json.Object
    [
      ("minor_words", Json.Float s.Gc.minor_words);
      ("promoted_words", Json.Float s.Gc.promoted_words);
      ("major_words", Json.Float s.Gc.major_words);
      ("minor_collections", Json.Int s.Gc.minor_collections);
      ("major_collections", Json.Int s.Gc.major_collections);
      ("compactions", Json.Int s.Gc.compactions);
      ("heap_words", Json.Int s.Gc.heap_words);
      ("top_heap_words", Json.Int s.Gc.top_heap_words);
    ]

let counter_value name =
  match List.assoc_opt name (Telemetry.counters ()) with Some v -> v | None -> 0

let gauge_value name =
  match List.assoc_opt name (Telemetry.gauges ()) with Some v -> v | None -> 0.0

(* Optimizer pass timings, aggregated over every span path whose leaf is a
   pass name (passes run nested under different figures). *)
let pass_names =
  [ "optimize"; "chaining"; "splitting"; "hot_cold"; "pettis_hansen"; "placement"; "cfa" ]

let basename path =
  match String.rindex_opt path '/' with
  | Some i -> String.sub path (i + 1) (String.length path - i - 1)
  | None -> path

let passes_json () =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (s : Telemetry.span_stat) ->
      let leaf = basename s.Telemetry.span_path in
      if List.mem leaf pass_names then begin
        let count, total =
          match Hashtbl.find_opt tbl leaf with Some (c, t) -> (c, t) | None -> (0, 0.0)
        in
        Hashtbl.replace tbl leaf
          (count + s.Telemetry.span_count, total +. s.Telemetry.span_total_s)
      end)
    (Telemetry.span_stats ());
  Json.Array
    (List.filter_map
       (fun name ->
         match Hashtbl.find_opt tbl name with
         | Some (count, total) ->
             Some
               (Json.Object
                  [
                    ("pass", Json.String name);
                    ("count", Json.Int count);
                    ("total_s", Json.Float total);
                  ])
         | None -> None)
       pass_names)

(* Per-series timeline summaries (window width, window count, total) go
   through the baseline gate like any other deterministic metric; the full
   window arrays live in the dedicated TIMELINE artifact.  Absent entirely
   when the timeline subsystem is disabled, so baselines recorded without
   [--timeline-out] keep diffing clean. *)
let timeline_json () =
  if not (Timeline.enabled ()) then []
  else
    [
      ( "timeline",
        Json.Object
          [
            ("window_instrs", Json.Int (Timeline.window ()));
            ( "series",
              Json.Array
                (List.map
                   (fun (d : Timeline.dump) ->
                     Json.Object
                       [
                         ("name", Json.String d.Timeline.d_name);
                         ("kind", Json.String (Timeline.kind_name d.Timeline.d_kind));
                         ("windows", Json.Int (Array.length d.Timeline.d_values));
                         ("total", Json.Int d.Timeline.d_total);
                       ])
                   (Timeline.dump ())) );
          ] );
    ]

let json ~scale ~total_seconds ~trace_cache_bytes ~figures =
  let replayed_runs = counter_value "context.replayed_runs" in
  let replay_seconds = gauge_value "context.replay_seconds" in
  Json.Object
    ([
       ("schema", Json.String schema);
      ("scale", Json.String scale);
      ("generated_unix_time", Json.Float (Unix.time ()));
      ("argv", Json.Array (Array.to_list (Array.map (fun a -> Json.String a) Sys.argv)));
      ("total_seconds", Json.Float total_seconds);
      ("figures", Json.Array (List.map figure_json figures));
      ( "trace_cache",
        Json.Object
          ([
             ("bytes", Json.Int trace_cache_bytes);
             ("traces_recorded", Json.Int (counter_value "context.traces_recorded"));
             ("hits", Json.Int (counter_value "context.traces_replayed"));
             ("runs_replayed", Json.Int replayed_runs);
             ("instrs_replayed", Json.Int (counter_value "context.replayed_instrs"));
             ("replay_seconds", Json.Float replay_seconds);
           ]
          @ opt_field "replay_mruns_per_s" (mruns_per_s replayed_runs replay_seconds)) );
      ( "counters",
        Json.Object (List.map (fun (n, v) -> (n, Json.Int v)) (Telemetry.counters ())) );
      ( "gauges",
        Json.Object (List.map (fun (n, v) -> (n, Json.Float v)) (Telemetry.gauges ())) );
      ( "spans",
        Json.Array
          (List.map
             (fun (s : Telemetry.span_stat) ->
               Json.Object
                 [
                   ("path", Json.String s.Telemetry.span_path);
                   ("count", Json.Int s.Telemetry.span_count);
                   ("total_s", Json.Float s.Telemetry.span_total_s);
                   ("max_s", Json.Float s.Telemetry.span_max_s);
                 ])
             (Telemetry.span_stats ())) );
      ("passes", passes_json ());
      ("gc", gc_json ());
    ]
    @ timeline_json ())

let default_path ~scale = Printf.sprintf "BENCH_%s.json" scale

let write ~path ~scale ~total_seconds ~trace_cache_bytes ~figures =
  Json.write_file path (json ~scale ~total_seconds ~trace_cache_bytes ~figures)
