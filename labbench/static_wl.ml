(* The two static workloads: one full Spike "all" layout built from a
   training profile, then the base and optimised streams of a separate
   measured run captured and analysed.

   - oltp-tpcb: the paper's workload, 26,016 segments, mostly
     Pettis-Hansen;
   - dss-query: the bypass, a small query engine whose hot code fits in
     cache and whose layout takes milliseconds. *)

module Spike = Olayout_core.Spike
module Splitting = Olayout_core.Splitting
module Pettis_hansen = Olayout_core.Pettis_hansen
module Placement = Olayout_core.Placement
module Profile = Olayout_profile.Profile
module Trace = Olayout_exec.Trace
module Binary = Olayout_codegen.Binary
module Tpcb = Olayout_db.Tpcb
module Workload = Olayout_oltp.Workload
module Server = Olayout_oltp.Server
module Dss = Olayout_oltp.Dss

let tpcb_train_txns = 150
let tpcb_measured_txns = 100
let dss_rows = 5_000
let dss_query_repeats = 2

(* Spike's "all" pipeline, pass by pass: fine-grain splitting, then
   Pettis-Hansen, then address assignment. *)
let layout profile =
  let split =
    Meter.span ~always:true "core.splitting" (fun () -> Splitting.fine_grain profile)
  in
  let order =
    Meter.span ~always:true "core.pettis_hansen" (fun () ->
        Pettis_hansen.order profile split)
  in
  let placement =
    Meter.span ~always:true "core.placement" (fun () ->
        Placement.of_segments ~align:4 (Profile.prog profile) order)
  in
  (List.length split, placement)

let outcome ~profile ~segments ~opt ~base_trace ~opt_trace ~capture_instrs ~counts
    ~extra_checks =
  let a = Analysis.run ~base:base_trace ~opt:opt_trace in
  let text_bytes = Placement.text_bytes opt in
  {
    Outcome.analysis = a;
    text_kb = float_of_int text_bytes /. 1024.0;
    facts =
      Outcome.quality_facts ~text_bytes a
      @ [ ("core.segments", string_of_int segments) ]
      @ List.map (fun (k, v) -> (k, Printf.sprintf "%.17g" v)) counts;
    counts = ("core.segments", float_of_int segments) :: counts;
    capture_instrs;
    checks =
      (fun ~heavy ->
        extra_checks ~heavy
        @
        if heavy then
          [
            ( "layout pass by pass = Spike.optimize All",
              Placement.equal opt (Spike.optimize profile Spike.All) );
            ( "stackdist 64KB misses = Icache replay",
              Analysis.check_icache ~base:base_trace ~opt:opt_trace a );
          ]
        else []);
  }

let tpcb ?(txns = tpcb_measured_txns) ~seed () =
  let wl, base_app, base_kernel =
    Meter.span "oltp.create" (fun () ->
        let wl = Workload.create ~seed:Outcome.program_seed () in
        (wl, Workload.base_app wl, Workload.base_kernel wl))
  in
  let app_profile, kernel_profile =
    Meter.span "oltp.train" (fun () ->
        Workload.train wl ~txns:tpcb_train_txns ~seed:(Outcome.train_seed seed) ())
  in
  let pass () =
    let segments, opt = layout app_profile in
    let (base_emit, base_trace), (opt_emit, opt_trace) = (Trace.record (), Trace.record ()) in
    let spec app_placement emit =
      { Server.app_placement; kernel_placement = base_kernel; emit }
    in
    let r =
      Meter.span "oltp.capture" (fun () ->
          Server.run ~app:(Workload.app wl) ~kernel:(Workload.kernel wl) ~txns
            ~seed:(Outcome.measure_seed seed)
            ~renders:[ spec base_app base_emit; spec opt opt_emit ]
            ())
    in
    outcome ~profile:app_profile ~segments ~opt ~base_trace ~opt_trace
      ~capture_instrs:(r.Server.app_instrs + r.Server.kernel_instrs)
      ~counts:
        [
          ("db.committed", float_of_int r.Server.committed);
          ("db.aborted", float_of_int r.Server.aborted);
          ("db.lock_waits", float_of_int r.Server.lock_waits);
        ]
      ~extra_checks:(fun ~heavy:_ ->
        [ ("Tpcb.check_consistency", Tpcb.check_consistency r.Server.db = Ok ()) ])
  in
  {
    Outcome.train_instrs =
      Profile.dynamic_instrs app_profile + Profile.dynamic_instrs kernel_profile;
    pass;
    layout_once = None;
  }

let dss ~seed () =
  let dss, base =
    Meter.span "oltp.create" (fun () ->
        let dss = Dss.create ~rows:dss_rows ~seed:Outcome.program_seed () in
        (dss, Placement.original (Binary.prog (Dss.binary dss))))
  in
  let profile = Profile.create (Binary.prog (Dss.binary dss)) in
  let (_ : Dss.result) =
    Meter.span "oltp.train" (fun () ->
        Dss.run_queries dss ~repeat:1 ~seed:(Outcome.train_seed seed)
          ~app_sinks:[ (fun ~proc ~block ~arm -> Profile.record profile ~proc ~block ~arm) ]
          ())
  in
  let pass () =
    let segments, opt = layout profile in
    let (base_emit, base_trace), (opt_emit, opt_trace) = (Trace.record (), Trace.record ()) in
    let query ?(renders = []) () =
      Dss.run_queries dss ~repeat:dss_query_repeats ~seed:(Outcome.measure_seed seed) ~renders ()
    in
    let r =
      Meter.span "oltp.capture" (fun () ->
          query ~renders:[ (base, base_emit); (opt, opt_emit) ] ())
    in
    outcome ~profile ~segments ~opt ~base_trace ~opt_trace
      ~capture_instrs:r.Dss.app_instrs
      ~counts:
        [
          ("dss.rows_scanned", float_of_int r.Dss.rows_scanned);
          ("dss.probes", float_of_int r.Dss.probes);
        ]
      ~extra_checks:(fun ~heavy ->
        if heavy then
          [ ("DSS Q1 groups without renders", (query ()).Dss.q1_groups = r.Dss.q1_groups) ]
        else [])
  in
  {
    Outcome.train_instrs = Profile.dynamic_instrs profile;
    pass;
    layout_once = Some (fun () -> ignore (layout profile));
  }
