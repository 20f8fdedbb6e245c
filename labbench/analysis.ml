(* The measurement half every workload shares: two captured fetch streams
   (base and optimised layout) are replayed, swept through the 28-config
   i-cache battery and run through the three Figure 15 timing models. *)

module Run = Olayout_exec.Run
module Trace = Olayout_exec.Trace
module Icache = Olayout_cachesim.Icache
module Battery = Olayout_cachesim.Battery
module Machine = Olayout_perf.Machine
module Timing = Olayout_perf.Timing

(* Figures 4-5's direct-mapped grid plus the headline geometry at 2, 4 and
   8 ways (Figure 6). *)
let configs =
  List.concat_map
    (fun size_kb ->
      List.map
        (fun line -> Icache.config ~size_kb ~line ~assoc:1 ())
        [ 16; 32; 64; 128; 256 ])
    [ 32; 64; 128; 256; 512 ]
  @ List.map
      (fun assoc -> Icache.config ~size_kb:64 ~line:128 ~assoc ())
      [ 2; 4; 8 ]

(* The quality metrics' geometry: 64 KB direct-mapped, 128 B lines. *)
let headline = Icache.config ~size_kb:64 ~line:128 ~assoc:1 ()
let app_run (r : Run.t) = r.Run.owner = Run.App

type stream = {
  runs : int;
  instrs : int;
  app_instrs : int;
  misses : (string * int) list;  (* per battery configuration *)
  cycles : (string * float) list;  (* per machine *)
}

type t = { base : stream; opt : stream; trace_bytes : int }

let headline_misses s = List.assoc headline.Icache.name s.misses

let replay_counts trace =
  let runs = ref 0 and instrs = ref 0 and app = ref 0 in
  Trace.replay trace (fun r ->
      incr runs;
      instrs := !instrs + r.Run.len;
      if app_run r then app := !app + r.Run.len);
  (!runs, !instrs, !app)

let sweep trace =
  let b = Battery.create ~engine:`Stackdist configs in
  Battery.access_trace ~keep:app_run b trace;
  List.map (fun (c, m) -> (c.Icache.name, m)) (Battery.misses_by_config b)

let timing trace =
  let models = List.map (fun m -> (m, Timing.create m)) Machine.all in
  Trace.replay trace (fun r -> List.iter (fun (_, t) -> Timing.fetch_run t r) models);
  List.map (fun ((m : Machine.t), t) -> (m.Machine.name, Timing.cycles t)) models

let run ~base ~opt =
  let (rb, ib, ab), (ro, io, ao) =
    Meter.span "exec.replay" (fun () -> (replay_counts base, replay_counts opt))
  in
  let mb, mo = Meter.span "cachesim.sweep" (fun () -> (sweep base, sweep opt)) in
  let cb, co = Meter.span "perf.timing" (fun () -> (timing base, timing opt)) in
  {
    base = { runs = rb; instrs = ib; app_instrs = ab; misses = mb; cycles = cb };
    opt = { runs = ro; instrs = io; app_instrs = ao; misses = mo; cycles = co };
    trace_bytes = Trace.memory_bytes base + Trace.memory_bytes opt;
  }

let opt_mpki a =
  float_of_int (headline_misses a.opt) *. 1000.0 /. float_of_int a.opt.app_instrs

let opt_vs_base_64k a =
  float_of_int (headline_misses a.opt) /. float_of_int (headline_misses a.base)

let sim_speedup_21364 a =
  let name = Machine.alpha_21364_sim.Machine.name in
  List.assoc name a.base.cycles /. List.assoc name a.opt.cycles

(* Deterministic facts of the two streams, for the cross-iteration check. *)
let facts a =
  let stream tag s =
    [
      (tag ^ ".runs", string_of_int s.runs);
      (tag ^ ".instrs", string_of_int s.instrs);
      (tag ^ ".app_instrs", string_of_int s.app_instrs);
    ]
    @ List.map (fun (c, m) -> (Printf.sprintf "%s.misses.%s" tag c, string_of_int m)) s.misses
    @ List.map (fun (m, c) -> (Printf.sprintf "%s.cycles.%s" tag m, Printf.sprintf "%.17g" c)) s.cycles
  in
  stream "base" a.base @ stream "opt" a.opt

(* Reference check: the stack-distance sweep's headline misses equal a
   plain LRU i-cache replay of the same stream. *)
let check_icache ~base ~opt a =
  let replay trace =
    let c = Icache.create headline in
    Trace.replay trace (fun r -> if app_run r then Icache.access_run c r);
    Icache.misses c
  in
  replay base = headline_misses a.base && replay opt = headline_misses a.opt
