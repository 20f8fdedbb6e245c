(* oltp-drift: the layout layer used online.  One Incremental memo is
   re-laid out at every 65,536-instruction window of a mix-shifting TPC-B
   run: each tick merges the window's profile and runs Incremental.update
   over the full segment set, and the captured block path is re-rendered
   window by window under the evolving layout (the re-layout loop of
   [olayout relayout] at cadence 1).  The base stream is the same path
   under the static training layout throughout. *)

module Spike = Olayout_core.Spike
module Placement = Olayout_core.Placement
module Incremental = Olayout_core.Incremental
module Profile = Olayout_profile.Profile
module Windowed = Olayout_profile.Windowed
module Trace = Olayout_exec.Trace
module Render = Olayout_exec.Render
module Run = Olayout_exec.Run
module Tpcb = Olayout_db.Tpcb
module Workload = Olayout_oltp.Workload
module Server = Olayout_oltp.Server
module Schedule = Olayout_oltp.Schedule
open Olayout_ir

let window = 65536
let slots = 4
let measured_txns = 24
let algo = Incremental.Combo Spike.All

(* Growable int array for the captured (proc, block, arm) events. *)
type vec = { mutable a : int array; mutable n : int }

let vec () = { a = Array.make 4096 0; n = 0 }

let push v x =
  if v.n = Array.length v.a then begin
    let b = Array.make (2 * v.n) 0 in
    Array.blit v.a 0 b 0 v.n;
    v.a <- b
  end;
  v.a.(v.n) <- x;
  v.n <- v.n + 1

(* Ticks whose update is re-checked against a from-scratch build. *)
let sampled_ticks n = List.sort_uniq compare [ 1; n / 2; n - 1 ]

let drift ?(txns = measured_txns) ~seed () =
  let wl =
    Meter.span "oltp.create" (fun () -> Workload.create ~seed:Outcome.program_seed ())
  in
  let app_profile, kernel_profile =
    Meter.span "oltp.train" (fun () ->
        Workload.train wl ~txns:Static_wl.tpcb_train_txns
          ~seed:(Outcome.train_seed seed) ())
  in
  let prog = Profile.prog app_profile in
  let pass () =
    let work0 = Incremental.work_counters () in
    let memo =
      Meter.span ~always:true "core.create" (fun () -> Incremental.create algo app_profile)
    in
    let static = Incremental.placement memo in
    (* Capture: the windowed profile and the raw application block path,
       windows indexed on Windowed's clock (an event belongs to the window
       of its start position). *)
    let wp = Windowed.create ~window prog in
    let ep = vec () and eb = vec () and ea = vec () and starts = vec () in
    let pos = ref 0 in
    let capture ~proc ~block ~arm =
      let w = !pos / window in
      while starts.n <= w do
        push starts ep.n
      done;
      push ep proc;
      push eb block;
      push ea arm;
      pos := !pos + max 1 (Block.source_instrs (Proc.block (Prog.proc prog proc) block))
    in
    let r =
      Meter.span "oltp.capture" (fun () ->
          Server.run ~app:(Workload.app wl) ~kernel:(Workload.kernel wl) ~txns
            ~seed:(Outcome.measure_seed seed)
            ~schedule:(Schedule.rotation ~slots)
            ~app_sinks:[ Windowed.sink wp; capture ]
            ())
    in
    let n = Windowed.windows wp in
    while starts.n <= n do
      push starts ep.n
    done;
    (* Render window [w] through [render] into its merger; the merger is
       flushed at every window boundary, as Olayout_harness.Relayout does. *)
    let replay_window merger render w =
      Meter.span "exec.window_replay" (fun () ->
          let sink = Render.sink render in
          for i = starts.a.(w) to starts.a.(w + 1) - 1 do
            sink ~proc:ep.a.(i) ~block:eb.a.(i) ~arm:ea.a.(i)
          done;
          Render.flush merger)
    in
    let base_emit, base_trace = Trace.record () in
    let base_merger = Render.merger ~emit:base_emit in
    let base_render = Render.create ~placement:static ~owner:Run.App base_merger in
    for w = 0 to n - 1 do
      replay_window base_merger base_render w
    done;
    let opt_emit, opt_trace = Trace.record () in
    let merger = Render.merger ~emit:opt_emit in
    let render = ref (Render.create ~placement:static ~owner:Run.App merger) in
    let sampled = sampled_ticks n in
    let kept = ref [] in
    for w = 0 to n - 1 do
      if w > 0 then
        Meter.span "relayout.tick" (fun () ->
            let p =
              Meter.span ~always:true "profile.merge" (fun () ->
                  Windowed.merged wp ~lo:(w - 1) ~hi:w)
            in
            let placement =
              Meter.span ~always:true "core.update" (fun () -> Incremental.update memo p)
            in
            if List.mem w sampled then kept := (w, p, placement) :: !kept;
            render := Render.create ~placement ~owner:Run.App merger);
      replay_window merger !render w
    done;
    let work = Incremental.work_sub (Incremental.work_counters ()) work0 in
    let final = Incremental.placement memo in
    let a = Analysis.run ~base:base_trace ~opt:opt_trace in
    let text_bytes = Placement.text_bytes final in
    let segments = List.length (Placement.segments final) in
    let work_facts =
      [
        ("work.full_builds", work.Incremental.w_full_builds);
        ("work.updates", work.Incremental.w_updates);
        ("work.procs_replaced", work.Incremental.w_procs_replaced);
        ("work.procs_reused", work.Incremental.w_procs_reused);
        ("work.passes_run", work.Incremental.w_passes_run);
        ("work.passes_skipped", work.Incremental.w_passes_skipped);
        ("work.pass_invocations", work.Incremental.w_invocations);
        ("work.scratch_pass_invocations", work.Incremental.w_scratch_invocations);
      ]
    in
    let db_counts =
      [
        ("db.committed", float_of_int r.Server.committed);
        ("db.aborted", float_of_int r.Server.aborted);
        ("db.lock_waits", float_of_int r.Server.lock_waits);
      ]
    in
    let replaced = work.Incremental.w_procs_replaced
    and reused = work.Incremental.w_procs_reused in
    {
      Outcome.analysis = a;
      text_kb = float_of_int text_bytes /. 1024.0;
      facts =
        Outcome.quality_facts ~text_bytes a
        @ [
            ("windows", string_of_int n);
            ("relayouts", string_of_int (max 0 (n - 1)));
            ("core.segments", string_of_int segments);
          ]
        @ List.map (fun (k, v) -> (k, string_of_int v)) work_facts
        @ List.map (fun (k, v) -> (k, Printf.sprintf "%.17g" v)) db_counts;
      counts =
        [
          ("core.segments", float_of_int segments);
          ("core.procs_replaced", float_of_int replaced);
          ("core.pass_invocations", float_of_int work.Incremental.w_invocations);
          ( "core.scratch_pass_invocations",
            float_of_int work.Incremental.w_scratch_invocations );
          ( "core.reuse_share",
            float_of_int reused /. float_of_int (max 1 (reused + replaced)) );
          ("profile.windows", float_of_int n);
        ]
        @ db_counts;
      capture_instrs = r.Server.app_instrs + r.Server.kernel_instrs;
      checks =
        (fun ~heavy ->
          ("Tpcb.check_consistency", Tpcb.check_consistency r.Server.db = Ok ())
          ::
          (if heavy then
             ( "stackdist 64KB misses = Icache replay",
               Analysis.check_icache ~base:base_trace ~opt:opt_trace a )
             :: List.rev_map
                  (fun (w, p, placement) ->
                    ( Printf.sprintf "Incremental.update = scratch at tick %d" w,
                      Placement.equal placement (Incremental.scratch algo p) ))
                  !kept
           else []));
    }
  in
  {
    Outcome.train_instrs =
      Profile.dynamic_instrs app_profile + Profile.dynamic_instrs kernel_profile;
    pass;
    layout_once = None;
  }
