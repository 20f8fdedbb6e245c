(* The layout-lab benchmark's entry point.

     lab.exe --workload NAME --seed N --seconds S --trace 0|1
     lab.exe --workload NAME --seed N --facts [--txns N]

   Each iteration is a fresh set-up followed by one measured pass; an
   untimed warm-up iteration comes first and carries the heavy reference
   checks.  Every timed sample is bracketed by calibration-kernel runs and
   reported in reference seconds (see calib.ml).  The last line of standard
   output is one JSON object: {correct, attempted, failed, metrics}.
   [--facts] instead prints one iteration's deterministic facts as JSON
   (the reproduction test's input). *)

let workloads =
  [
    ("oltp-tpcb", fun ~seed ~txns -> Static_wl.tpcb ?txns ~seed ());
    ("dss-query", fun ~seed ~txns:_ -> Static_wl.dss ~seed ());
    ("oltp-drift", fun ~seed ~txns -> Drift_wl.drift ?txns ~seed ());
  ]

let usage () =
  Printf.sprintf
    "usage: lab.exe --workload {%s} --seed N (--seconds S --trace 0|1 | --facts \
     [--txns N])"
    (String.concat "," (List.map fst workloads))

let fail_usage msg =
  prerr_endline ("lab: " ^ msg);
  prerr_endline (usage ());
  exit 2

type args = {
  workload : string;
  seed : int;
  seconds : int;
  trace : bool;
  facts : bool;
  txns : int option;
}

let parse argv =
  let int_arg flag v =
    match int_of_string_opt v with
    | Some n -> n
    | None -> fail_usage (Printf.sprintf "%s expects an integer, got %S" flag v)
  in
  let rec go acc = function
    | [] -> acc
    | "--workload" :: v :: rest ->
        if not (List.mem_assoc v workloads) then
          fail_usage
            (Printf.sprintf "unknown workload %S; valid values: %s" v
               (String.concat ", " (List.map fst workloads)));
        go { acc with workload = v } rest
    | "--seed" :: v :: rest -> go { acc with seed = int_arg "--seed" v } rest
    | "--seconds" :: v :: rest ->
        let s = int_arg "--seconds" v in
        if s < 1 then fail_usage "--seconds must be at least 1";
        go { acc with seconds = s } rest
    | "--trace" :: v :: rest -> (
        match v with
        | "0" -> go { acc with trace = false } rest
        | "1" -> go { acc with trace = true } rest
        | _ -> fail_usage (Printf.sprintf "--trace expects 0 or 1, got %S" v))
    | "--txns" :: v :: rest ->
        let n = int_arg "--txns" v in
        if n < 1 then fail_usage "--txns must be at least 1";
        go { acc with txns = Some n } rest
    | "--facts" :: rest -> go { acc with facts = true } rest
    | flag :: _ -> fail_usage (Printf.sprintf "unknown or incomplete argument %S" flag)
  in
  let a =
    go
      { workload = ""; seed = 0; seconds = 0; trace = false; facts = false; txns = None }
      (List.tl (Array.to_list argv))
  in
  if a.workload = "" then fail_usage "--workload is required";
  if (not a.facts) && a.seconds = 0 then fail_usage "--seconds is required";
  if a.txns <> None && a.workload = "dss-query" then
    fail_usage "--txns applies to oltp-tpcb and oltp-drift only";
  a

(* --- one iteration ------------------------------------------------------ *)

type sample = {
  traced : bool;
  raw_setup : float;
  raw_pass : float;
  f_setup : float;  (* reference seconds per raw second *)
  f_pass : float;
  cal : float list;  (* kernel seconds measured around this iteration *)
  layout : float;  (* reference seconds producing layouts *)
  raw_layout : float;
  peak_rss : float;
  out : Outcome.t;
  layer : (string * float) list;  (* per-layer metrics, traced iterations *)
}

let layout_batch = 32

let factor k0 k1 = Calib.reference_s /. ((k0 +. k1) /. 2.0)

let iterate ~traced (setup : unit -> Outcome.ready) =
  Gc.full_major ();
  Meter.reset ();
  Meter.tracing := traced;
  Meter.reset_peak_rss ();
  let k0 = Calib.measure () in
  let t0 = Meter.now () in
  let ready = setup () in
  let raw_setup = Meter.now () -. t0 in
  let k1 = Calib.measure () in
  let f_setup = factor k0 k1 in
  let setup_layer =
    if traced then
      Layers.setup_part ~raw_setup ~f_setup ~train_instrs:ready.Outcome.train_instrs
    else []
  in
  Meter.reset ();
  let t1 = Meter.now () in
  let out = ready.Outcome.pass () in
  let raw_pass = Meter.now () -. t1 in
  let k2 = Calib.measure () in
  let peak_rss = Meter.peak_rss_mb () in
  let f_pass = factor k1 k2 in
  let layer =
    if traced then Layers.combine (setup_layer @ Layers.pass_part ~raw_pass ~f_pass out)
    else []
  in
  Meter.tracing := false;
  (* A layout too short to time alone is timed as a batch of repeats. *)
  let raw_layout, layout, cal =
    match ready.Outcome.layout_once with
    | None ->
        let raw =
          List.fold_left
            (fun acc n -> acc +. Meter.total n)
            0.0
            [ "core.splitting"; "core.pettis_hansen"; "core.placement"; "core.create";
              "profile.merge"; "core.update" ]
        in
        (raw, raw *. f_pass, [ k0; k1; k2 ])
    | Some once ->
        let t = Meter.now () in
        for _ = 1 to layout_batch do
          once ()
        done;
        let raw = (Meter.now () -. t) /. float_of_int layout_batch in
        let k3 = Calib.measure () in
        (raw, raw *. factor k2 k3, [ k0; k1; k2; k3 ])
  in
  { traced; raw_setup; raw_pass; f_setup; f_pass; cal; layout; raw_layout; peak_rss; out;
    layer }

(* --- checks ------------------------------------------------------------- *)

let attempted = ref 0
let failed = ref 0

let check name ok =
  incr attempted;
  if not ok then begin
    incr failed;
    Printf.eprintf "lab: check failed: %s\n%!" name
  end

let run_checks ~heavy ~facts0 (s : sample) =
  List.iter (fun (name, ok) -> check name ok) (s.out.Outcome.checks ~heavy);
  match facts0 with
  | None -> ()
  | Some f0 ->
      let same = s.out.Outcome.facts = f0 in
      if not same then
        List.iter2
          (fun (k, v0) (_, v) ->
            if v <> v0 then Printf.eprintf "lab: fact %s: %s then %s\n%!" k v0 v)
          f0 s.out.Outcome.facts;
      check "iteration reproduces iteration 0's facts" same

(* --- report ------------------------------------------------------------- *)

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let print_result metrics =
  let body =
    String.concat ", "
      (List.map
         (fun (name, unit_, v) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit_)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (!failed = 0) !attempted !failed body

(* Peak RSS is read from the warm-up iteration, the first in the process:
   the OCaml runtime keeps its major heap mapped once grown, so later
   iterations would read the process's high-water mark, which grows with
   the number of iterations run. *)
let end_to_end ~(warm : sample) (samples : sample list) =
  let med f = Meter.median (List.map f samples) in
  let out = (List.hd samples).out in
  let a = out.Outcome.analysis in
  [
    ("setup_s", "s", med (fun s -> s.raw_setup *. s.f_setup));
    ("run_s", "s", med (fun s -> s.raw_pass *. s.f_pass));
    ("layout_s", "s", med (fun s -> s.layout));
    ("opt_mpki", "1/kinstr", Analysis.opt_mpki a);
    ("opt_vs_base_64k", "ratio", Analysis.opt_vs_base_64k a);
    ("sim_speedup_21364", "x", Analysis.sim_speedup_21364 a);
    ("text_kb", "KiB", out.Outcome.text_kb);
    ("peak_rss_mb", "MiB", warm.peak_rss);
  ]

let print_facts (out : Outcome.t) =
  let a = out.Outcome.analysis in
  let quality =
    [
      ("opt_mpki", Printf.sprintf "%.17g" (Analysis.opt_mpki a));
      ("opt_vs_base_64k", Printf.sprintf "%.17g" (Analysis.opt_vs_base_64k a));
      ("sim_speedup_21364", Printf.sprintf "%.17g" (Analysis.sim_speedup_21364 a));
      ("text_kb", Printf.sprintf "%.17g" out.Outcome.text_kb);
    ]
  in
  print_string "{";
  print_string
    (String.concat ", "
       (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k v) (quality @ out.Outcome.facts)));
  print_endline "}"

(* Per-layer report: medians over the traced iterations, plus the
   bookkeeping of the whole run.  The tracing overhead is the median
   difference between each traced iteration and the untraced one after it,
   in reference seconds, with the quartile spread of those differences. *)
let per_layer (samples : sample list) =
  let traced = List.filter (fun s -> s.traced) samples in
  let norm_run s = s.raw_pass *. s.f_pass in
  let rec pairs = function
    | a :: (b :: _ as rest) when a.traced && not b.traced ->
        (norm_run a -. norm_run b) :: pairs rest
    | _ :: rest -> pairs rest
    | [] -> []
  in
  let diffs = pairs samples in
  let q1, q3 = Meter.quartiles diffs in
  let bench =
    [
      ("bench.trace_overhead_s", Meter.median diffs);
      ("bench.trace_overhead_spread_s", q3 -. q1);
      ("bench.cal_ms", 1000.0 *. Meter.median (List.concat_map (fun s -> s.cal) samples));
      ("bench.raw_setup_s", Meter.median (List.map (fun s -> s.raw_setup) samples));
      ("bench.raw_run_s", Meter.median (List.map (fun s -> s.raw_pass) samples));
      ("bench.iterations", float_of_int (List.length samples));
      ("bench.failed_share", float_of_int !failed /. float_of_int (max 1 !attempted));
    ]
  in
  List.map
    (fun (name, unit_) ->
      let v =
        match List.assoc_opt name bench with
        | Some v -> v
        | None -> Meter.median (List.map (fun s -> List.assoc name s.layer) traced)
      in
      (name, unit_, v))
    Layers.units

let min_iterations ~trace = if trace then 4 else 3

let () =
  let args = parse Sys.argv in
  let make = List.assoc args.workload workloads in
  let setup () = make ~seed:args.seed ~txns:args.txns in
  if args.facts then begin
    let s = iterate ~traced:false setup in
    run_checks ~heavy:true ~facts0:None s;
    print_facts s.out;
    exit (if !failed = 0 then 0 else 1)
  end;
  (* Warm-up: untimed, carries the heavy checks and the reference facts. *)
  let warm = iterate ~traced:false setup in
  run_checks ~heavy:true ~facts0:None warm;
  let facts0 = Some warm.out.Outcome.facts in
  let deadline = Meter.now () +. float_of_int args.seconds in
  let rec loop i acc =
    if i > min_iterations ~trace:args.trace && Meter.now () >= deadline then List.rev acc
    else begin
      (* Traced runs alternate traced and untraced iterations, so the
         tracing overhead is measured under the same host conditions. *)
      let s = iterate ~traced:(args.trace && i mod 2 = 1) setup in
      run_checks ~heavy:false ~facts0 s;
      Printf.eprintf "lab: iteration %d%s: set-up %.3f s, pass %.3f s raw; factors %.3f %.3f\n%!"
        i (if s.traced then " (traced)" else "") s.raw_setup s.raw_pass s.f_setup s.f_pass;
      loop (i + 1) (s :: acc)
    end
  in
  let samples = loop 1 [] in
  let metrics =
    if args.trace then per_layer samples else end_to_end ~warm samples
  in
  (* Raw (unnormalised) medians for the steadiness script, on a line of
     its own before the result. *)
  let med f = Meter.median (List.map f samples) in
  Printf.printf
    "# raw {\"setup_s\": %.17g, \"run_s\": %.17g, \"layout_s\": %.17g, \"cal_ms\": %.17g, \
     \"iterations\": %d}\n"
    (med (fun s -> s.raw_setup))
    (med (fun s -> s.raw_pass))
    (med (fun s -> s.raw_layout))
    (1000.0 *. Meter.median (List.concat_map (fun s -> s.cal) samples))
    (List.length samples);
  print_result metrics
