(* Chrome trace-event export: render a telemetry JSONL stream (the
   {"ev":"span",...} / {"ev":"sample",...} lines Telemetry's sink writes)
   as a traceEvents document loadable in Perfetto / chrome://tracing.

   Layout: one track ("thread") per figure phase - the first
   path component named report.<id>, or the root span otherwise - so the
   per-figure timelines sit side by side; watched counters become
   counter tracks ("ph":"C"), e.g. cumulative i-cache misses and the
   trace-cache footprint over the run.  Timestamps are the telemetry
   stream's process-relative seconds converted to microseconds.

   {"ev":"timeline",...} lines (windowed series on the simulated
   instruction clock) render as counter tracks in a second process
   (pid 2): their clock is instructions, not seconds, so they must not
   share an axis with the wall-clock spans.  One simulated instruction
   maps to one microsecond.

   {"ev":"provenance",...} lines from the layout-decision log get a third
   process (pid 3, "address space"): each pipeline's final placement
   events render as one "X" span per procedure with ts = entry address
   and dur = encoded bytes (1 byte = 1 us), one track per combo — a
   scrollable memory map of where the optimizer put everything.
   Decision events from the other passes carry no spatial coordinate and
   are skipped. *)

module Json = Olayout_telemetry.Json

exception Convert_error of string

let schema = "olayout-chrome-trace/v1"

let fail fmt = Printf.ksprintf (fun msg -> raise (Convert_error msg)) fmt

(* "bench.total/report.fig4/optimize" -> "report.fig4";
   "bench.total/bench.setup" -> "bench.total". *)
let phase_of_path path =
  let components = String.split_on_char '/' path in
  let is_figure c =
    String.length c > 7 && String.sub c 0 7 = "report."
  in
  match List.find_opt is_figure components with
  | Some c -> c
  | None -> ( match components with c :: _ -> c | [] -> path)

let us s = 1e6 *. s

let of_events events =
  (* Stable tids: first-seen order of phases, 1-based ("track 0" renders
     oddly in some viewers). *)
  let tids : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let phases = ref [] in
  let tid_of phase =
    match Hashtbl.find_opt tids phase with
    | Some t -> t
    | None ->
        let t = Hashtbl.length tids + 1 in
        Hashtbl.add tids phase t;
        phases := phase :: !phases;
        t
  in
  let spans = ref [] and samples = ref [] in
  let timelines = ref [] in
  let placements = ref [] in
  List.iter
    (fun ev ->
      match Json.member "ev" ev with
      | Some (Json.String "span") -> (
          match
            ( Json.member "name" ev, Json.member "path" ev,
              Option.bind (Json.member "start_s" ev) Json.get_float,
              Option.bind (Json.member "dur_s" ev) Json.get_float )
          with
          | Some (Json.String name), Some (Json.String path), Some start, Some dur ->
              spans := (name, tid_of (phase_of_path path), start, dur) :: !spans
          | _ -> fail "span event missing name/path/start_s/dur_s")
      | Some (Json.String "sample") -> (
          match
            ( Json.member "name" ev,
              Option.bind (Json.member "t_s" ev) Json.get_float,
              Option.bind (Json.member "value" ev) Json.get_float )
          with
          | Some (Json.String name), Some t, Some v -> samples := (name, t, v) :: !samples
          | _ -> fail "sample event missing name/t_s/value")
      | Some (Json.String "timeline") -> (
          match
            ( Json.member "name" ev,
              Option.bind (Json.member "window_instrs" ev) Json.get_int,
              Option.bind (Json.member "values" ev) Json.get_list )
          with
          | Some (Json.String name), Some w, Some vs ->
              let values =
                List.map
                  (fun v ->
                    match Json.get_int v with
                    | Some n -> n
                    | None -> fail "timeline event has a non-integer value")
                  vs
              in
              timelines := (name, w, values) :: !timelines
          | _ -> fail "timeline event missing name/window_instrs/values")
      | Some (Json.String "provenance") -> (
          match Json.member "pass" ev with
          | Some (Json.String "placement") -> (
              let fields = Json.member "fields" ev in
              let fget k = Option.bind fields (Json.member k) in
              match
                ( fget "combo", fget "name",
                  Option.bind (fget "addr") Json.get_int,
                  Option.bind (fget "bytes") Json.get_int )
              with
              | Some (Json.String combo), Some (Json.String name), Some addr,
                Some bytes ->
                  placements := (combo, name, addr, bytes) :: !placements
              | _ -> fail "placement provenance event missing combo/name/addr/bytes")
          | _ -> () (* per-pass decision events have no spatial coordinate *))
      (* meta header and final registry dump events carry no timeline *)
      | _ -> ())
    events;
  let span_events =
    List.rev_map
      (fun (name, tid, start, dur) ->
        ( start,
          Json.Object
            [
              ("name", Json.String name);
              ("cat", Json.String "span");
              ("ph", Json.String "X");
              ("pid", Json.Int 1);
              ("tid", Json.Int tid);
              ("ts", Json.Float (us start));
              ("dur", Json.Float (us dur));
            ] ))
      !spans
  in
  let counter_events =
    List.rev_map
      (fun (name, t, v) ->
        ( t,
          Json.Object
            [
              ("name", Json.String name);
              ("cat", Json.String "counter");
              ("ph", Json.String "C");
              ("pid", Json.Int 1);
              ("ts", Json.Float (us t));
              ("args", Json.Object [ ("value", Json.Float v) ]);
            ] ))
      !samples
  in
  let timeline =
    List.stable_sort
      (fun (a, _) (b, _) -> compare a b)
      (span_events @ counter_events)
  in
  (* Windowed series on the instruction clock: one counter event per
     window, ts = window start (1 instr = 1 us), on their own pid so
     Perfetto never mixes the two clocks on one axis. *)
  let instr_counter_events =
    List.concat_map
      (fun (name, window_instrs, values) ->
        List.mapi
          (fun i v ->
            Json.Object
              [
                ("name", Json.String name);
                ("cat", Json.String "timeline");
                ("ph", Json.String "C");
                ("pid", Json.Int 2);
                ("ts", Json.Float (float_of_int (i * window_instrs)));
                ("args", Json.Object [ ("value", Json.Int v) ]);
              ])
          values)
      (List.rev !timelines)
  in
  (* The memory map: one track per combo, spans positioned by address. *)
  let combo_tids : (string, int) Hashtbl.t = Hashtbl.create 4 in
  let combos = ref [] in
  let combo_tid_of combo =
    match Hashtbl.find_opt combo_tids combo with
    | Some t -> t
    | None ->
        let t = Hashtbl.length combo_tids + 1 in
        Hashtbl.add combo_tids combo t;
        combos := combo :: !combos;
        t
  in
  let placement_events =
    List.map
      (fun (combo, name, addr, bytes) ->
        Json.Object
          [
            ("name", Json.String name);
            ("cat", Json.String "provenance");
            ("ph", Json.String "X");
            ("pid", Json.Int 3);
            ("tid", Json.Int (combo_tid_of combo));
            ("ts", Json.Float (float_of_int addr));
            ("dur", Json.Float (float_of_int (max bytes 1)));
          ])
      (List.rev !placements)
  in
  let thread_metas =
    List.concat_map
      (fun phase ->
        let tid = Hashtbl.find tids phase in
        [
          Json.Object
            [
              ("name", Json.String "thread_name");
              ("ph", Json.String "M");
              ("pid", Json.Int 1);
              ("tid", Json.Int tid);
              ("args", Json.Object [ ("name", Json.String phase) ]);
            ];
          Json.Object
            [
              ("name", Json.String "thread_sort_index");
              ("ph", Json.String "M");
              ("pid", Json.Int 1);
              ("tid", Json.Int tid);
              ("args", Json.Object [ ("sort_index", Json.Int tid) ]);
            ];
        ])
      (List.rev !phases)
  in
  let process_meta =
    Json.Object
      [
        ("name", Json.String "process_name");
        ("ph", Json.String "M");
        ("pid", Json.Int 1);
        ("args", Json.Object [ ("name", Json.String "olayout") ]);
      ]
  in
  let instr_process_meta =
    if instr_counter_events = [] then []
    else
      [
        Json.Object
          [
            ("name", Json.String "process_name");
            ("ph", Json.String "M");
            ("pid", Json.Int 2);
            ( "args",
              Json.Object
                [ ("name", Json.String "simulated instruction clock") ] );
          ];
      ]
  in
  let addr_metas =
    if placement_events = [] then []
    else
      Json.Object
        [
          ("name", Json.String "process_name");
          ("ph", Json.String "M");
          ("pid", Json.Int 3);
          ( "args",
            Json.Object [ ("name", Json.String "address space (1 B = 1 us)") ] );
        ]
      :: List.map
           (fun combo ->
             Json.Object
               [
                 ("name", Json.String "thread_name");
                 ("ph", Json.String "M");
                 ("pid", Json.Int 3);
                 ("tid", Json.Int (Hashtbl.find combo_tids combo));
                 ("args", Json.Object [ ("name", Json.String combo) ]);
               ])
           (List.rev !combos)
  in
  Json.Object
    [
      ( "traceEvents",
        Json.Array
          ((process_meta :: thread_metas)
          @ instr_process_meta @ addr_metas @ List.map snd timeline
          @ instr_counter_events @ placement_events) );
      ("displayTimeUnit", Json.String "ms");
      ("otherData", Json.Object [ ("schema", Json.String schema) ]);
    ]

let read_jsonl path =
  let ic =
    try open_in path
    with Sys_error msg -> fail "cannot open %s: %s" path msg
  in
  let events = ref [] and lineno = ref 0 in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      try
        while true do
          let line = input_line ic in
          incr lineno;
          if String.trim line <> "" then
            match Json.parse line with
            | ev -> events := ev :: !events
            | exception Json.Parse_error msg ->
                fail "%s:%d: invalid JSONL line (%s)" path !lineno msg
        done
      with End_of_file -> ());
  List.rev !events

let of_jsonl path = of_events (read_jsonl path)

let convert ~src ~dst = Json.write_file dst (of_jsonl src)
