(* Tests for the incremental re-layout engine and the closed-loop driver:
   profile deltas (dirty sets, hot/cold transitions, validation), placement
   equality, the equivalence guarantee that an incremental update is
   byte-identical to a from-scratch build — for every pipeline combination
   and the temporal/colored recipes, including under randomized profile
   deltas (weight perturbations, edge deletions, newly-hot procedures) —
   the relayout.* work counters with the >= 2x combined work-savings
   acceptance gate, trace-cache reuse of scheduled streams, and the
   cadence-sweep driver with its olayout-relayout/v1 artifact. *)

open Olayout_ir
module Spike = Olayout_core.Spike
module Placement = Olayout_core.Placement
module Delta = Olayout_core.Delta
module Incremental = Olayout_core.Incremental
module Profile = Olayout_profile.Profile
module Temporal = Olayout_profile.Temporal
module Observatory = Olayout_drift.Observatory
module Closedloop = Olayout_drift.Closedloop
module Context = Olayout_harness.Context
module Diagnose = Olayout_harness.Diagnose
module Drift = Olayout_harness.Drift
module Relayout = Olayout_harness.Relayout
module Telemetry = Olayout_telemetry.Telemetry
module Json = Olayout_telemetry.Json
module Artifact = Olayout_regress.Artifact
module Diff = Olayout_regress.Diff
module Rng = Olayout_util.Rng
module Walk = Olayout_exec.Walk

(* A profile from walking a random subset of procedures a random number of
   times: versus another seed this produces weight perturbations, deleted
   edges, gone-cold and newly-hot procedures all at once. *)
let random_profile prog seed =
  let rng = Rng.create seed in
  let profile = Profile.create prog in
  let walk = Walk.create ~prog ~rng:(Rng.split rng) in
  Walk.add_sink walk (fun ~proc ~block ~arm -> Profile.record profile ~proc ~block ~arm);
  for p = 0 to Prog.n_procs prog - 1 do
    if Rng.int rng 4 > 0 then
      for _ = 1 to 1 + Rng.int rng 8 do
        Walk.call walk p
      done
  done;
  profile

(* A temporal-affinity graph fed by the same kind of walk. *)
let tgraph prog seed =
  let t = Temporal.create prog () in
  let walk = Walk.create ~prog ~rng:(Rng.create seed) in
  Walk.add_sink walk (Temporal.sink t);
  for _ = 1 to 10 do
    for p = 0 to Prog.n_procs prog - 1 do
      Walk.call walk p
    done
  done;
  t

(* --- Delta ------------------------------------------------------------- *)

let test_delta_empty () =
  let prog = Olayout_codegen.Binary.prog (Helpers.random_program 11) in
  let p = Helpers.walked_profile ~calls:20 ~seed:5 prog in
  let q = Helpers.walked_profile ~calls:20 ~seed:5 prog in
  let d = Delta.diff p q in
  Alcotest.(check bool) "identical recordings: empty" true (Delta.is_empty d);
  Alcotest.(check int) "no dirty procs" 0 (Delta.n_dirty d);
  Alcotest.(check (list int)) "dirty list empty" [] (Delta.dirty_procs d);
  Alcotest.(check int) "no new hot" 0 (Delta.new_hot d);
  Alcotest.(check int) "no gone cold" 0 (Delta.gone_cold d)

let test_delta_dirty () =
  let prog = Olayout_codegen.Binary.prog (Helpers.random_program 11) in
  let p = Helpers.walked_profile ~calls:20 ~seed:5 prog in
  let q = Helpers.walked_profile ~calls:20 ~seed:5 prog in
  (* Perturb one procedure's block counts only. *)
  Profile.record_block q ~proc:1 ~block:0 ~count:3;
  let d = Delta.diff p q in
  Alcotest.(check bool) "nonempty" false (Delta.is_empty d);
  Alcotest.(check (list int)) "exactly proc 1 dirty" [ 1 ] (Delta.dirty_procs d);
  Alcotest.(check bool) "is_dirty agrees" true (Delta.is_dirty d 1);
  Alcotest.(check bool) "clean proc stays clean" false (Delta.is_dirty d 0);
  Alcotest.(check bool) "block rows changed" true (Delta.blocks_changed d > 0)

let test_delta_hot_cold () =
  let prog = Helpers.call_prog () in
  let cold = Profile.create prog in
  Profile.record cold ~proc:0 ~block:0 ~arm:0;
  let hot = Profile.create prog in
  Profile.record hot ~proc:0 ~block:0 ~arm:0;
  Profile.record hot ~proc:1 ~block:0 ~arm:0;
  let d = Delta.diff cold hot in
  Alcotest.(check int) "callee newly hot" 1 (Delta.new_hot d);
  Alcotest.(check int) "nothing went cold" 0 (Delta.gone_cold d);
  let back = Delta.diff hot cold in
  Alcotest.(check int) "reverse: gone cold" 1 (Delta.gone_cold back);
  Alcotest.(check int) "reverse: none new" 0 (Delta.new_hot back)

let test_delta_validation () =
  let a = Profile.create (Helpers.call_prog ()) in
  let b = Profile.create (Helpers.diamond_prog 0.5) in
  Alcotest.(check bool) "different programs rejected" true
    (match Delta.diff a b with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* --- Placement.equal --------------------------------------------------- *)

let test_placement_equal () =
  let prog = Olayout_codegen.Binary.prog (Helpers.random_program 12) in
  let p = Helpers.walked_profile ~calls:20 ~seed:5 prog in
  let a = Spike.optimize p Spike.All in
  let b = Spike.optimize p Spike.All in
  Alcotest.(check bool) "same build equal" true (Placement.equal a b);
  let base = Spike.optimize p Spike.Base in
  Alcotest.(check bool) "base differs from all" false (Placement.equal a base)

(* --- incremental == from-scratch --------------------------------------- *)

let algos prog =
  List.map (fun c -> Incremental.Combo c) Spike.all_combos
  @ [
      Incremental.Temporal (tgraph prog 21);
      Incremental.Colored { cache_bytes = 64 * 1024; max_gap_lines = None };
    ]

let algo_name = function
  | Incremental.Combo c -> Spike.combo_name c
  | Incremental.Temporal _ -> "temporal"
  | Incremental.Colored _ -> "colored"

let check_chain prog algo profiles =
  match profiles with
  | [] | [ _ ] -> Alcotest.fail "need a base profile and at least one update"
  | base :: updates ->
      ignore prog;
      let memo = Incremental.create algo base in
      Alcotest.(check bool)
        (algo_name algo ^ " full build = scratch")
        true
        (Placement.equal (Incremental.placement memo)
           (Incremental.scratch algo base));
      List.iteri
        (fun i p ->
          let incr = Incremental.update memo p in
          Alcotest.(check bool)
            (Printf.sprintf "%s update %d = scratch" (algo_name algo) i)
            true
            (Placement.equal incr (Incremental.scratch algo p)))
        updates

let test_equivalence_all_algos () =
  let prog = Olayout_codegen.Binary.prog (Helpers.random_program 12) in
  let profiles = List.map (random_profile prog) [ 100; 101; 102; 103 ] in
  List.iter (fun algo -> check_chain prog algo profiles) (algos prog)

(* The randomized acceptance property: across programs, seeds and update
   chains, an incremental update is byte-identical to a from-scratch
   build.  Each chain mixes weight perturbations, deleted edges and
   newly-hot/gone-cold procedures (random_profile's subset walks). *)
let test_equivalence_property () =
  List.iter
    (fun prog_seed ->
      let prog = Olayout_codegen.Binary.prog (Helpers.random_program prog_seed) in
      List.iter
        (fun combo ->
          List.iter
            (fun chain_seed ->
              let profiles =
                List.init 4 (fun i -> random_profile prog (chain_seed + i))
              in
              check_chain prog (Incremental.Combo combo) profiles)
            [ 1000; 2000 ])
        [ Spike.All; Spike.Chain_porder; Spike.Chain_split; Spike.Porder ])
    [ 31; 32; 33 ]

(* --- work counters ----------------------------------------------------- *)

let test_empty_delta_skips () =
  let prog = Olayout_codegen.Binary.prog (Helpers.random_program 13) in
  let p = random_profile prog 7 in
  let memo = Incremental.create (Incremental.Combo Spike.All) p in
  let built = Incremental.placement memo in
  let w0 = Incremental.work_counters () in
  let again = Incremental.update memo p in
  let w = Incremental.work_sub (Incremental.work_counters ()) w0 in
  Alcotest.(check bool) "memoized placement returned" true
    (Placement.equal built again);
  Alcotest.(check int) "no procs replaced" 0 w.Incremental.w_procs_replaced;
  Alcotest.(check int) "no passes run" 0 w.Incremental.w_passes_run;
  Alcotest.(check bool) "passes skipped booked" true
    (w.Incremental.w_passes_skipped > 0);
  Alcotest.(check int) "no work invoked" 0 w.Incremental.w_invocations;
  Alcotest.(check bool) "scratch counterfactual still booked" true
    (w.Incremental.w_scratch_invocations > 0)

let test_work_accounting () =
  let prog = Olayout_codegen.Binary.prog (Helpers.random_program 13) in
  let w0 = Incremental.work_counters () in
  let memo = Incremental.create (Incremental.Combo Spike.All) (random_profile prog 7) in
  let (_ : Placement.t) = Incremental.update memo (random_profile prog 8) in
  let w = Incremental.work_sub (Incremental.work_counters ()) w0 in
  Alcotest.(check int) "one full build" 1 w.Incremental.w_full_builds;
  Alcotest.(check int) "one update" 1 w.Incremental.w_updates;
  Alcotest.(check int) "replaced + reused = procs"
    (Prog.n_procs prog)
    (w.Incremental.w_procs_replaced + w.Incremental.w_procs_reused);
  (* A random delta may dirty every procedure, so only <= holds here... *)
  Alcotest.(check bool) "incremental never dearer than scratch" true
    (w.Incremental.w_invocations <= w.Incremental.w_scratch_invocations);
  (* ...but a single-procedure perturbation must be strictly cheaper. *)
  let base = Helpers.walked_profile ~calls:20 ~seed:5 prog in
  let touched = Helpers.walked_profile ~calls:20 ~seed:5 prog in
  Profile.record_block touched ~proc:1 ~block:0 ~count:3;
  let w1 = Incremental.work_counters () in
  let memo = Incremental.create (Incremental.Combo Spike.All) base in
  let (_ : Placement.t) = Incremental.update memo touched in
  let w = Incremental.work_sub (Incremental.work_counters ()) w1 in
  Alcotest.(check int) "one proc replaced" 1 w.Incremental.w_procs_replaced;
  Alcotest.(check int) "rest reused"
    (Prog.n_procs prog - 1)
    w.Incremental.w_procs_reused;
  Alcotest.(check bool) "strictly cheaper than scratch" true
    (w.Incremental.w_invocations < w.Incremental.w_scratch_invocations)

(* --- the drivers over a Quick context ----------------------------------- *)

let ctx = lazy (Context.create ~scale:Context.Quick ())

(* Both closed-loop drivers over one context, with the combined layout
   work attributed (the ISSUE's acceptance gate measures drift's staleness
   matrix plus the relayout loop together). *)
let results =
  lazy
    (let c = Lazy.force ctx in
     let preset = Diagnose.preset_of_figure "fig4" in
     let w0 = Incremental.work_counters () in
     let d = Drift.run c preset in
     let r = Relayout.run c preset in
     let w = Incremental.work_sub (Incremental.work_counters ()) w0 in
     (d, r, w))

let test_driver_curve () =
  let _, r, _ = Lazy.force results in
  Alcotest.(check bool) "several windows" true (r.Closedloop.r_windows > 8);
  Alcotest.(check int) "default cadence sweep" 4
    (List.length r.Closedloop.r_points);
  Alcotest.(check int) "static never re-lays-out" 0
    r.Closedloop.r_static.Closedloop.c_relayouts;
  Alcotest.(check int) "static books no layout work" 0
    r.Closedloop.r_static.Closedloop.c_work.Incremental.w_invocations;
  let static_instrs = r.Closedloop.r_static.Closedloop.c_instrs in
  Alcotest.(check bool) "stream reached the cache" true (static_instrs > 0);
  List.iter
    (fun (p : Closedloop.point) ->
      Alcotest.(check bool)
        (Printf.sprintf "cadence %d re-laid-out" p.Closedloop.c_cadence)
        true
        (p.Closedloop.c_relayouts > 0);
      (* The block path is shared, but placements change run lengths
         (alignment padding), so per-cadence instruction totals sit near
         the static row without matching it exactly. *)
      Alcotest.(check bool)
        (Printf.sprintf "cadence %d instrs close to static" p.Closedloop.c_cadence)
        true
        (abs (p.Closedloop.c_instrs - static_instrs) * 10 < static_instrs);
      Alcotest.(check int)
        (Printf.sprintf "cadence %d window series sums to total" p.Closedloop.c_cadence)
        p.Closedloop.c_misses
        (Array.fold_left ( + ) 0 p.Closedloop.c_window_misses))
    r.Closedloop.r_points;
  (* Summary consistency. *)
  let best = Closedloop.best_point r in
  List.iter
    (fun (p : Closedloop.point) ->
      Alcotest.(check bool) "best is minimal" true
        (best.Closedloop.c_misses <= p.Closedloop.c_misses))
    (r.Closedloop.r_static :: r.Closedloop.r_points);
  let be = Closedloop.break_even_cadence r in
  if be > 0 then
    List.iter
      (fun (p : Closedloop.point) ->
        if p.Closedloop.c_cadence = be then
          Alcotest.(check bool) "break-even beats static" true
            (p.Closedloop.c_misses < r.Closedloop.r_static.Closedloop.c_misses))
      r.Closedloop.r_points

let test_combined_work_gate () =
  let d, r, w = Lazy.force results in
  (* Per-driver ratios are honest and positive... *)
  Alcotest.(check bool) "drift matrix saves work" true
    (Observatory.work_ratio_x100 d.Observatory.o_work > 100);
  Alcotest.(check bool) "relayout loop saves work" true
    (Closedloop.work_ratio_x100 r > 100);
  (* ...and the ISSUE's acceptance gate holds on the combination: the drift
     staleness matrix plus the relayout loop invoke >= 2x fewer pipeline
     passes than from-scratch per-phase layout would. *)
  Alcotest.(check bool)
    (Printf.sprintf "combined >= 2x (inv %d vs scratch %d)"
       w.Incremental.w_invocations w.Incremental.w_scratch_invocations)
    true
    (w.Incremental.w_scratch_invocations >= 2 * w.Incremental.w_invocations)

let test_driver_equivalence_at_scale () =
  (* One full-size spot check on the real workload profile: an incremental
     update from the training profile to a drifted window span matches the
     from-scratch pipeline byte for byte. *)
  let c = Lazy.force ctx in
  ignore (Lazy.force results);
  let train = Context.app_profile c in
  let memo = Incremental.create (Incremental.Combo Spike.All) train in
  let drifted = Profile.merge train (Profile.scale train 0.5) in
  let incr = Incremental.update memo drifted in
  Alcotest.(check bool) "quick-context update = scratch" true
    (Placement.equal incr
       (Incremental.scratch (Incremental.Combo Spike.All) drifted))

let test_driver_gauges () =
  ignore (Lazy.force results);
  let gauges = Telemetry.gauges () in
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " published") true (List.mem_assoc name gauges);
      Alcotest.(check bool) (name ^ " deterministic") true
        (Diff.classify ("gauges." ^ name) = Diff.Deterministic))
    [
      "relayout.windows";
      "relayout.cadences";
      "relayout.static_mpki_x100";
      "relayout.best_mpki_x100";
      "relayout.best_cadence";
      "relayout.break_even_cadence";
      "relayout.saved_misses_permille";
      "relayout.loop_pass_invocations";
      "relayout.loop_scratch_invocations";
      "relayout.work_ratio_x100";
      "drift.relayout_pass_invocations";
      "drift.relayout_scratch_invocations";
      "drift.relayout_work_ratio_x100";
    ];
  Alcotest.(check bool) "last () caches the result" true (Relayout.last () <> None)

let test_driver_validation () =
  let c = Lazy.force ctx in
  let preset = Diagnose.preset_of_figure "fig4" in
  let raises f = match f () with exception Invalid_argument _ -> true | _ -> false in
  Alcotest.(check bool) "base combo rejected" true
    (raises (fun () -> Relayout.run ~combo:Spike.Base c preset));
  Alcotest.(check bool) "empty cadences rejected" true
    (raises (fun () -> Relayout.run ~cadences:[] c preset));
  Alcotest.(check bool) "cadence < 1 rejected" true
    (raises (fun () -> Relayout.run ~cadences:[ 0 ] c preset));
  Alcotest.(check bool) "window < 1 rejected" true
    (raises (fun () -> Relayout.run ~window:0 c preset));
  Alcotest.(check bool) "slots < 2 rejected" true
    (raises (fun () -> Relayout.run ~slots:1 c preset))

(* --- trace-cache reuse of scheduled streams ----------------------------- *)

let test_scheduled_streams_share_cache () =
  (* PR 9 bypassed the trace cache for scheduled runs; now the schedule
     signature is part of the key, so a re-run of the drift driver replays
     the recorded scheduled training-row stream instead of re-simulating
     it. *)
  let c = Lazy.force ctx in
  ignore (Lazy.force results);
  let s0 = Context.trace_stats c in
  let (_ : Observatory.t) = Drift.run c (Diagnose.preset_of_figure "fig4") in
  let s1 = Context.trace_stats c in
  Alcotest.(check bool)
    (Printf.sprintf "scheduled stream replayed (%d -> %d)"
       s0.Context.replayed_traces s1.Context.replayed_traces)
    true
    (s1.Context.replayed_traces > s0.Context.replayed_traces)

(* --- artifact ---------------------------------------------------------- *)

let test_artifact () =
  let _, r, _ = Lazy.force results in
  let path = Filename.temp_file "olayout_relayout" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Closedloop.write_artifact ~path ~scale:"quick" r;
      let art = Artifact.load_file path in
      Alcotest.(check string) "schema" "olayout-relayout/v1" art.Artifact.schema;
      Alcotest.(check string) "scale" "quick" art.Artifact.scale;
      Alcotest.(check bool) "summary metrics flatten" true
        (Artifact.metric art "relayout.summary.break_even_cadence" <> None);
      Alcotest.(check bool) "static row flattens" true
        (Artifact.metric art "relayout.static.misses" <> None);
      Alcotest.(check bool) "work counters flatten" true
        (Artifact.metric art "relayout.summary.work.pass_invocations" <> None);
      List.iter
        (fun (p, _) ->
          Alcotest.(check bool)
            (p ^ " classified deterministic") true
            (Diff.classify p = Diff.Deterministic))
        art.Artifact.metrics);
  let fields =
    match Closedloop.to_json ~scale:"quick" r with
    | Json.Object fs -> List.map fst fs
    | _ -> []
  in
  Alcotest.(check bool) "no generated_unix_time" false
    (List.mem "generated_unix_time" fields);
  Alcotest.(check bool) "no argv" false (List.mem "argv" fields)

let test_repeatable_bytes () =
  (* The within-process analogue of CI's cross-leg cmp: re-running the
     capture and the whole cadence sweep over the same context reproduces
     the document byte for byte. *)
  let c = Lazy.force ctx in
  ignore (Lazy.force results);
  let doc () =
    Json.to_string
      (Closedloop.to_json ~scale:"quick"
         (Relayout.run c (Diagnose.preset_of_figure "fig4")))
  in
  Alcotest.(check string) "byte-identical re-run" (doc ()) (doc ())

let suite =
  ( "relayout",
    [
      Alcotest.test_case "delta: identical profiles empty" `Quick test_delta_empty;
      Alcotest.test_case "delta: dirty set" `Quick test_delta_dirty;
      Alcotest.test_case "delta: hot/cold transitions" `Quick test_delta_hot_cold;
      Alcotest.test_case "delta: program mismatch" `Quick test_delta_validation;
      Alcotest.test_case "placement equality" `Quick test_placement_equal;
      Alcotest.test_case "incremental = scratch (all algorithms)" `Quick
        test_equivalence_all_algos;
      Alcotest.test_case "incremental = scratch (randomized deltas)" `Quick
        test_equivalence_property;
      Alcotest.test_case "empty delta skips passes" `Quick test_empty_delta_skips;
      Alcotest.test_case "work accounting" `Quick test_work_accounting;
      Alcotest.test_case "cadence sweep curve" `Slow test_driver_curve;
      Alcotest.test_case "combined >= 2x work gate" `Slow test_combined_work_gate;
      Alcotest.test_case "quick-context equivalence" `Slow
        test_driver_equivalence_at_scale;
      Alcotest.test_case "gauges published" `Slow test_driver_gauges;
      Alcotest.test_case "driver validation" `Slow test_driver_validation;
      Alcotest.test_case "scheduled streams share the cache" `Slow
        test_scheduled_streams_share_cache;
      Alcotest.test_case "artifact shape + classification" `Slow test_artifact;
      Alcotest.test_case "byte-identical re-run" `Slow test_repeatable_bytes;
    ] )
