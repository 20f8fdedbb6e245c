module Diag = Olayout_diag.Diag
module Resolver = Olayout_diag.Resolver
module Icache = Olayout_cachesim.Icache
module Spike = Olayout_core.Spike
module Run = Olayout_exec.Run
module Telemetry = Olayout_telemetry.Telemetry
module Json = Olayout_telemetry.Json
module Histogram = Olayout_metrics.Histogram

type preset = {
  fig : string;
  size_kb : int;
  line : int;
  assoc : int;
  combined : bool;
  what : string;
}

let presets =
  [
    {
      fig = "fig4";
      size_kb = 64;
      line = 128;
      assoc = 1;
      combined = false;
      what = "64KB/128B direct-mapped, application stream (headline sweep point)";
    };
    {
      fig = "fig6";
      size_kb = 64;
      line = 128;
      assoc = 4;
      combined = false;
      what = "64KB/128B 4-way, application stream (what associativity absorbs)";
    };
    {
      fig = "fig12";
      size_kb = 128;
      line = 128;
      assoc = 4;
      combined = true;
      what = "128KB/128B 4-way, combined app+kernel stream (interference setup)";
    };
  ]

let preset_of_figure id =
  match List.find_opt (fun p -> p.fig = id) presets with
  | Some p -> p
  | None ->
      invalid_arg
        (Printf.sprintf "unknown diagnosable figure %S (valid: %s)" id
           (String.concat ", " (List.map (fun p -> p.fig) presets)))

let run ?(combo = Spike.Base) ctx preset =
  Telemetry.span "diagnose" (fun () ->
      let resolver =
        Resolver.of_placements
          [
            (Run.App, Context.placement ctx combo);
            (Run.Kernel, Context.kernel_base ctx);
          ]
      in
      let d =
        Diag.create ~resolver
          (Icache.config ~size_kb:preset.size_kb ~line:preset.line ~assoc:preset.assoc ())
      in
      let emit run =
        if preset.combined || run.Run.owner = Run.App then Diag.access_run d run
      in
      let _ = Context.measure ctx ~renders:[ (combo, emit) ] () in
      d)

let pct part whole =
  if whole = 0 then "-" else Table.fmt_pct (float_of_int part /. float_of_int whole)

let summary_table ~combo preset d =
  let t = Diag.totals d in
  let tbl =
    Table.create
      ~title:
        (Printf.sprintf "miss classification: %s, %s layout (%s)" preset.fig
           (Spike.combo_name combo) preset.what)
      ~columns:[ "class"; "misses"; "share" ]
  in
  Table.add_row tbl [ "compulsory"; Table.fmt_int t.Diag.compulsory; pct t.Diag.compulsory t.Diag.total ];
  Table.add_row tbl [ "capacity"; Table.fmt_int t.Diag.capacity; pct t.Diag.capacity t.Diag.total ];
  Table.add_row tbl [ "conflict"; Table.fmt_int t.Diag.conflict; pct t.Diag.conflict t.Diag.total ];
  Table.add_row tbl [ "total"; Table.fmt_int t.Diag.total; "100.0%" ];
  Table.add_note tbl
    (Printf.sprintf "cold fills %s; conflict = set contention a placement fix can remove"
       (Table.fmt_int t.Diag.cold));
  tbl

let owner_name = function
  | Some Run.App -> "app"
  | Some Run.Kernel -> "kernel"
  | None -> "?"

let segments_table ~top d =
  let t = Diag.totals d in
  let tbl =
    Table.create
      ~title:(Printf.sprintf "top %d miss-attributed segments" top)
      ~columns:
        [ "segment"; "owner"; "misses"; "share"; "conflict"; "capacity"; "evicts"; "evicted" ]
  in
  List.iter
    (fun (r : Diag.seg_row) ->
      Table.add_row tbl
        [
          r.Diag.seg_name;
          owner_name r.Diag.seg_owner;
          Table.fmt_int r.Diag.seg_misses;
          pct r.Diag.seg_misses t.Diag.total;
          Table.fmt_int r.Diag.seg_conflict;
          Table.fmt_int r.Diag.seg_capacity;
          Table.fmt_int r.Diag.seg_evictions_caused;
          Table.fmt_int r.Diag.seg_evictions_suffered;
        ])
    (Diag.by_segment ~top d);
  tbl

let pairs_table ~top d =
  let tbl =
    Table.create
      ~title:(Printf.sprintf "top %d eviction conflict pairs (evictor -> victim)" top)
      ~columns:[ "evictor"; "victim"; "evictions"; "sets"; "hot set"; "in hot set" ]
  in
  List.iter
    (fun (p : Diag.conflict_pair) ->
      Table.add_row tbl
        [
          p.Diag.cp_evictor;
          p.Diag.cp_victim;
          Table.fmt_int p.Diag.cp_count;
          Table.fmt_int p.Diag.cp_sets;
          string_of_int p.Diag.cp_hot_set;
          Table.fmt_int p.Diag.cp_hot_count;
        ])
    (Diag.conflict_pairs ~top d);
  Table.add_note tbl
    "pairs a placement fix should separate: map evictor and victim to non-colliding sets";
  tbl

let pressure_table ~top d =
  let h = Diag.set_pressure d in
  let tbl =
    Table.create ~title:"per-set miss pressure"
      ~columns:[ "metric"; "value" ]
  in
  Table.add_row tbl [ "sets"; Table.fmt_int (Histogram.total h) ];
  Table.add_row tbl [ "mean misses/set"; Printf.sprintf "%.1f" (Histogram.mean h) ];
  Table.add_row tbl [ "max misses/set"; Table.fmt_int (Histogram.max_key h) ];
  (match Diag.hot_sets ~top d with
  | [] -> ()
  | hot ->
      Table.add_row tbl
        [
          "hottest sets";
          String.concat ", "
            (List.map (fun (s, m) -> Printf.sprintf "%d (%s)" s (Table.fmt_int m)) hot);
        ]);
  tbl

let tables ?(top = 10) ~combo preset d =
  [
    summary_table ~combo preset d;
    segments_table ~top d;
    pairs_table ~top d;
    pressure_table ~top:5 d;
  ]

let artifact_schema = "olayout-diag/v1"
let default_path ~scale = Printf.sprintf "DIAG_%s.json" scale

let write_artifact ~path ~scale ~combo ~preset ~icache_misses_delta d =
  let doc =
    Json.Object
      [
        ("schema", Json.String artifact_schema);
        ("scale", Json.String scale);
        ("figure", Json.String preset.fig);
        ("what", Json.String preset.what);
        ("combo", Json.String (Spike.combo_name combo));
        ("icache_misses_counter_delta", Json.Int icache_misses_delta);
        ("diag", Diag.json ~top:20 d);
      ]
  in
  Json.write_file path doc
