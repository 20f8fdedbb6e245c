open Cmdliner
module Context = Olayout_harness.Context
module Diagnose = Olayout_harness.Diagnose
module Report = Olayout_harness.Report
module Spike = Olayout_core.Spike
module Pool = Olayout_par.Pool
module Timeline = Olayout_telemetry.Timeline

(* --- converters ---------------------------------------------------------- *)

let checked_int ~expect ok =
  let parse s =
    match Arg.conv_parser Arg.int s with
    | Ok n when ok n -> Ok n
    | Ok _ | Error _ -> Error (`Msg (Printf.sprintf "expected %s, got %S" expect s))
  in
  Arg.conv ~docv:"N" (parse, Format.pp_print_int)

let at_least n = checked_int ~expect:(Printf.sprintf "an integer >= %d" n) (fun v -> v >= n)

let at_least_list n =
  let elts = Arg.list (at_least n) in
  let parse s =
    match Arg.conv_parser elts s with
    | Ok [] -> Error (`Msg (Printf.sprintf "expected a non-empty list of integers >= %d" n))
    | r -> r
  in
  Arg.conv ~docv:"N,N,..." (parse, Arg.conv_printer elts)

let pow2 = checked_int ~expect:"a power of two >= 1" (fun n -> n >= 1 && n land (n - 1) = 0)

let out_path =
  let parse p =
    let dir = Filename.dirname p in
    if not (Sys.file_exists dir && Sys.is_directory dir) then
      Error (`Msg (Printf.sprintf "cannot write %S: directory %S does not exist" p dir))
    else if Sys.file_exists p && Sys.is_directory p then
      Error (`Msg (Printf.sprintf "cannot write %S: it is a directory" p))
    else Ok p
  in
  Arg.conv ~docv:"FILE" (parse, Format.pp_print_string)

let named_conv ~docv ~what ~name ~valid find =
  let parse s =
    match find s with
    | Some v -> Ok v
    | None ->
        Error
          (`Msg (Printf.sprintf "unknown %s %S (valid: %s)" what s (String.concat ", " valid)))
  in
  Arg.conv ~docv (parse, fun ppf v -> Format.pp_print_string ppf (name v))

let combo_conv_of combos =
  named_conv ~docv:"COMBO" ~what:"combo" ~name:Spike.combo_name
    ~valid:(List.map Spike.combo_name combos)
    (fun s -> List.find_opt (fun c -> Spike.combo_name c = s) combos)

let combo_conv = combo_conv_of Spike.all_combos

(* --- workload ------------------------------------------------------------ *)

let scale =
  Term.(
    const (fun quick -> if quick then Context.Quick else Context.Full)
    $ Arg.(value & flag & info [ "quick" ] ~doc:"Reduced transaction counts (fast, noisier)."))

let scale_name = function Context.Quick -> "quick" | Context.Full -> "full"

let seed = Arg.(value & opt int 7 & info [ "seed" ] ~docv:"SEED" ~doc:"Workload/binary seed.")

let combo ?(optimized = false) ~default ~doc () =
  let combos =
    if optimized then combo_conv_of (List.filter (( <> ) Spike.Base) Spike.all_combos)
    else combo_conv
  in
  Arg.(value & opt combos default & info [ "combo" ] ~docv:"COMBO" ~doc)

let figure ~doc =
  let figs = List.map (fun p -> p.Diagnose.fig) Diagnose.presets in
  let preset =
    named_conv ~docv:"ID" ~what:"figure" ~name:(fun p -> p.Diagnose.fig) ~valid:figs
      (fun s -> List.find_opt (fun p -> p.Diagnose.fig = s) Diagnose.presets)
  in
  Arg.(
    value
    & opt preset (Diagnose.preset_of_figure "fig4")
    & info [ "figure" ] ~docv:"ID"
        ~doc:(Printf.sprintf "%s One of %s." doc (String.concat ", " figs)))

(* --- experiment schedule ------------------------------------------------- *)

let selection =
  let id =
    named_conv ~docv:"ID" ~what:"experiment" ~name:Fun.id ~valid:Report.experiment_ids
      (fun s -> if List.mem s Report.experiment_ids then Some s else None)
  in
  Term.(
    const (function [] -> Report.All | ids -> Report.Only ids)
    $ Arg.(
        value & opt (list id) []
        & info [ "only" ] ~docv:"IDS"
            ~doc:
              (Printf.sprintf "Comma-separated experiments to run (default all): %s."
                 (String.concat ", " Report.experiment_ids))))

let jobs =
  let parse = function
    | "auto" -> Ok 0
    | s -> (
        match Arg.conv_parser (at_least 1) s with
        | Ok j -> Ok j
        | Error _ ->
            Error (`Msg (Printf.sprintf "expected a positive domain count or \"auto\", got %S" s)))
  in
  let print ppf j = Format.pp_print_string ppf (if j = 0 then "auto" else string_of_int j) in
  Arg.(
    value
    & opt (some (conv ~docv:"N" (parse, print))) None
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Run replay-only figures on $(docv) domains (\"auto\" sizes by the machine).  \
           Deterministic counters are identical to the serial run; only wall-clock and \
           the par.* metrics change.")

let with_pool jobs f =
  let pool =
    match jobs with
    | None | Some 1 -> None
    | Some 0 -> Some (Pool.create ())
    | Some j -> Some (Pool.create ~jobs:j ())
  in
  Fun.protect ~finally:(fun () -> Option.iter Pool.shutdown pool) (fun () -> f pool)

let retain_mb =
  Arg.(
    value
    & opt (some (at_least 0)) None
    & info [ "retain-mb" ] ~docv:"MB"
        ~doc:
          "Bound trace-cache residency: after each figure, drop recorded streams with no \
           remaining consumer, largest first, while the cache exceeds $(docv) MiB.")

let engine =
  Arg.(
    value
    & opt (enum [ ("icache", `Icache); ("stackdist", `Stackdist) ]) `Stackdist
    & info [ "engine" ] ~docv:"ENGINE"
        ~doc:
          "Battery backend for the cache sweeps: $(b,stackdist) (default) computes every \
           geometry's misses in one stack-distance pass per line size; $(b,icache) \
           simulates one full cache per configuration.  Miss counts and timeline series \
           are identical; only the cachesim.* counters and wall-clock differ.")

(* --- observability ------------------------------------------------------- *)

let trace_stats =
  Arg.(
    value & flag
    & info [ "trace-stats" ]
        ~doc:
          "Print per-figure trace capture/replay statistics (runs and instructions \
           replayed vs simulated live, replay throughput) and a trace-cache summary.")

let output ?(names = [ "o"; "output" ]) ~doc () =
  Arg.(value & opt (some out_path) None & info names ~docv:"FILE" ~doc)

let output_or ~default ~doc =
  Arg.(value & opt out_path default & info [ "o"; "output" ] ~docv:"FILE" ~doc)

let telemetry_out =
  output ~names:[ "telemetry-out" ]
    ~doc:
      "Stream telemetry as JSONL to $(docv): one JSON object per span completion, then a \
       final registry dump."
    ()

let enable_timeline scale window =
  Timeline.set_enabled true;
  Timeline.set_window
    (match (window, scale) with
    | Some w, _ -> w
    | None, Context.Quick -> 65_536
    | None, Context.Full -> 524_288)

(* --- artifacts and gates ------------------------------------------------- *)

let gate =
  Arg.(
    value & flag
    & info [ "gate" ] ~doc:"Exit with status 1 when any deterministic metric drifted.")

let tolerance =
  let parse s =
    match Arg.conv_parser Arg.float s with
    | Ok f when f >= 0.0 -> Ok f
    | Ok _ | Error _ ->
        Error
          (`Msg (Printf.sprintf "expected a non-negative fraction (0.25 for +/-25%%), got %S" s))
  in
  Arg.(
    value
    & opt (some (conv ~docv:"FRACTION" (parse, Format.pp_print_float))) None
    & info [ "tolerance" ] ~docv:"FRACTION"
        ~doc:
          "Relative tolerance for timing metrics (default 0.25 = +/-25%).  Deterministic \
           metrics always require exact equality.")

(* --- evaluation ---------------------------------------------------------- *)

let usage_status = 2

let eval ?argv ?err cmd =
  match Cmd.eval_value ?argv ?err cmd with
  | Ok (`Ok code) -> code
  | Ok (`Help | `Version) -> 0
  | Error (`Parse | `Term) -> usage_status
  | Error `Exn -> Cmd.Exit.internal_error
