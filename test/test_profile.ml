(* Tests for Olayout_profile: exact profiles, edge weights, estimation and
   the sampling profiler. *)

open Olayout_ir
module Profile = Olayout_profile.Profile
module Sampler = Olayout_profile.Sampler

let test_record_counts () =
  let prog = Helpers.diamond_prog 0.5 in
  let p = Profile.create prog in
  Profile.record p ~proc:0 ~block:0 ~arm:0;
  Profile.record p ~proc:0 ~block:0 ~arm:1;
  Profile.record p ~proc:0 ~block:0 ~arm:0;
  Alcotest.(check int) "block count" 3 (Profile.block_count p ~proc:0 ~block:0);
  Alcotest.(check int) "arm0" 2 (Profile.arm_count p ~proc:0 ~block:0 ~arm:0);
  Alcotest.(check int) "arm1" 1 (Profile.arm_count p ~proc:0 ~block:0 ~arm:1);
  Alcotest.(check int) "untouched block" 0 (Profile.block_count p ~proc:0 ~block:2);
  Alcotest.(check int) "total events" 3 (Profile.total_block_events p)

let test_dynamic_instrs () =
  let prog = Helpers.diamond_prog 0.5 in
  let p = Profile.create prog in
  (* b0 (3+1 instrs) twice, b1 (5+1) once. *)
  Profile.record p ~proc:0 ~block:0 ~arm:0;
  Profile.record p ~proc:0 ~block:0 ~arm:1;
  Profile.record p ~proc:0 ~block:1 ~arm:0;
  Alcotest.(check int) "dyn instrs" ((2 * 4) + 6) (Profile.dynamic_instrs p)

let test_flow_edges () =
  let prog = Helpers.diamond_prog 0.5 in
  let p = Profile.create prog in
  Profile.record p ~proc:0 ~block:0 ~arm:0;
  Profile.record p ~proc:0 ~block:0 ~arm:0;
  Profile.record p ~proc:0 ~block:0 ~arm:1;
  let edges = Profile.proc_flow_edges p 0 in
  let weight src arm =
    (List.find (fun (e : Profile.flow_edge) -> e.src = src && e.arm = arm) edges).weight
  in
  Alcotest.(check (float 1e-9)) "taken weight" 2.0 (weight 0 0);
  Alcotest.(check (float 1e-9)) "fall weight" 1.0 (weight 0 1);
  (* Ret contributes no edge: b3 absent from sources. *)
  Alcotest.(check bool) "no ret edge" true
    (not (List.exists (fun (e : Profile.flow_edge) -> e.src = 3) edges))

let test_call_sites () =
  let prog = Helpers.call_prog () in
  let p = Profile.create prog in
  Profile.record p ~proc:0 ~block:0 ~arm:0;
  Profile.record p ~proc:0 ~block:1 ~arm:0;
  Profile.record p ~proc:0 ~block:1 ~arm:0;
  Alcotest.(check (list (triple int int int))) "call sites" [ (0, 1, 1); (0, 1, 2) ]
    (Profile.call_site_counts p)

let test_estimate_arms () =
  let prog = Helpers.diamond_prog 0.5 in
  let p = Profile.create prog in
  (* Block counts only: b0 100, b1 25, b2 75 -> estimated taken (b2) 75. *)
  Profile.record_block p ~proc:0 ~block:0 ~count:100;
  Profile.record_block p ~proc:0 ~block:1 ~count:25;
  Profile.record_block p ~proc:0 ~block:2 ~count:75;
  let est = Profile.estimate_arms p in
  Alcotest.(check int) "taken est" 75 (Profile.arm_count est ~proc:0 ~block:0 ~arm:0);
  Alcotest.(check int) "fall est" 25 (Profile.arm_count est ~proc:0 ~block:0 ~arm:1);
  (* Sum preserved. *)
  Alcotest.(check int) "arm sum = count" 100
    (Profile.arm_count est ~proc:0 ~block:0 ~arm:0
    + Profile.arm_count est ~proc:0 ~block:0 ~arm:1)

let test_estimate_cold_uniform () =
  let prog = Helpers.diamond_prog 0.5 in
  let p = Profile.create prog in
  Profile.record_block p ~proc:0 ~block:0 ~count:10;
  (* no successor counts: uniform split *)
  let est = Profile.estimate_arms p in
  Alcotest.(check int) "uniform arm0" 5 (Profile.arm_count est ~proc:0 ~block:0 ~arm:0)

let test_scale_merge () =
  let prog = Helpers.diamond_prog 0.5 in
  let p = Profile.create prog in
  Profile.record p ~proc:0 ~block:0 ~arm:0;
  Profile.record p ~proc:0 ~block:0 ~arm:0;
  let doubled = Profile.scale p 2.0 in
  Alcotest.(check int) "scaled" 4 (Profile.block_count doubled ~proc:0 ~block:0);
  let merged = Profile.merge p doubled in
  Alcotest.(check int) "merged" 6 (Profile.block_count merged ~proc:0 ~block:0);
  Alcotest.(check int) "merged arms" 6 (Profile.arm_count merged ~proc:0 ~block:0 ~arm:0)

let test_sampler_approximates () =
  (* Walk a random program; compare sampled block counts against exact. *)
  let built = Helpers.random_program 21 in
  let prog = Olayout_codegen.Binary.prog built in
  let exact = Profile.create prog in
  let sampler = Sampler.create prog ~period:13 in
  let walk = Olayout_exec.Walk.create ~prog ~rng:(Olayout_util.Rng.create 5) in
  Olayout_exec.Walk.add_sink walk (fun ~proc ~block ~arm ->
      Profile.record exact ~proc ~block ~arm;
      Sampler.sink sampler ~proc ~block ~arm);
  for _ = 1 to 300 do
    Olayout_exec.Walk.call walk 0
  done;
  Alcotest.(check bool) "samples taken" true (Sampler.samples_taken sampler > 100);
  let est = Sampler.to_profile sampler in
  (* Total dynamic instructions should agree within 20%. *)
  let de = float_of_int (Profile.dynamic_instrs exact) in
  let ds = float_of_int (Profile.dynamic_instrs est) in
  Alcotest.(check bool) "dyn instrs approx" true (abs_float (ds -. de) /. de < 0.2)

let test_sampler_period_validation () =
  let prog = Helpers.straight_prog 2 in
  Alcotest.(check bool) "bad period" true
    (try
       ignore (Sampler.create prog ~period:0);
       false
     with Invalid_argument _ -> true)

let test_profile_io_roundtrip () =
  let built = Helpers.random_program 17 in
  let prog = Olayout_codegen.Binary.prog built in
  let p = Helpers.walked_profile ~calls:20 prog in
  let path = Filename.temp_file "olayout" ".profile" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Profile.save_file path p;
      let q = Profile.load_file prog path in
      Alcotest.(check int) "events preserved" (Profile.total_block_events p)
        (Profile.total_block_events q);
      Alcotest.(check int) "dyn instrs preserved" (Profile.dynamic_instrs p)
        (Profile.dynamic_instrs q);
      Prog.iter_blocks prog (fun pr b ->
          let pid = pr.Proc.id and bid = b.Block.id in
          Alcotest.(check int) "block count" (Profile.block_count p ~proc:pid ~block:bid)
            (Profile.block_count q ~proc:pid ~block:bid);
          for arm = 0 to Block.arm_count b - 1 do
            Alcotest.(check int) "arm count" (Profile.arm_count p ~proc:pid ~block:bid ~arm)
              (Profile.arm_count q ~proc:pid ~block:bid ~arm)
          done))

let test_profile_io_mismatch () =
  let prog_a = Olayout_codegen.Binary.prog (Helpers.random_program 18) in
  let prog_b = Olayout_codegen.Binary.prog (Helpers.random_program 19) in
  let p = Helpers.walked_profile ~calls:3 prog_a in
  let path = Filename.temp_file "olayout" ".profile" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Profile.save_file path p;
      Alcotest.(check bool) "wrong program rejected" true
        (try
           ignore (Profile.load_file prog_b path);
           false
         with Profile.Load_error _ -> true))

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* A malformed file raises one Load_error naming the file and the line,
   never a bare Failure. *)
let test_profile_io_malformed () =
  let prog = Olayout_codegen.Binary.prog (Helpers.random_program 20) in
  let saved = Filename.temp_file "olayout" ".profile" in
  let path = Filename.temp_file "olayout" ".profile" in
  Fun.protect
    ~finally:(fun () -> List.iter Sys.remove [ saved; path ])
    (fun () ->
      Profile.save_file saved (Helpers.walked_profile ~calls:3 prog);
      let lines = In_channel.with_open_text saved In_channel.input_all |> String.split_on_char '\n' in
      let expect what contents ~line ~sub =
        Out_channel.with_open_text path (fun oc -> output_string oc contents);
        match Profile.load_file prog path with
        | _ -> Alcotest.failf "%s: accepted" what
        | exception Profile.Load_error msg ->
            let prefix = Printf.sprintf "%s:%d: " path line in
            Alcotest.(check bool)
              (Printf.sprintf "%s: %S names file and line" what msg)
              true
              (String.starts_with ~prefix msg);
            Alcotest.(check bool)
              (Printf.sprintf "%s: %S says %S" what msg sub)
              true
              (contains msg sub)
      in
      expect "garbage" "this is not a profile\n" ~line:1 ~sub:"not an olayout profile";
      let first n = String.concat "\n" (List.filteri (fun i _ -> i < n) lines) ^ "\n" in
      expect "truncated" (first 4) ~line:5 ~sub:"truncated";
      (* Line 4 is the first block line: "COUNT ARM...". *)
      let flipped =
        List.mapi (fun i l -> if i = 3 then "1x" ^ l else l) lines |> String.concat "\n"
      in
      expect "non-numeric count" flipped ~line:4 ~sub:"is not a count")

let qcheck_estimate_preserves_block_counts =
  QCheck.Test.make ~name:"estimate_arms preserves block counts" ~count:20 QCheck.small_int
    (fun seed ->
      let built = Helpers.random_program seed in
      let prog = Olayout_codegen.Binary.prog built in
      let p = Helpers.walked_profile ~calls:5 prog in
      let est = Profile.estimate_arms p in
      let ok = ref true in
      Prog.iter_blocks prog (fun pr blk ->
          if
            Profile.block_count p ~proc:pr.Proc.id ~block:blk.Block.id
            <> Profile.block_count est ~proc:pr.Proc.id ~block:blk.Block.id
          then ok := false);
      !ok)

module Temporal = Olayout_profile.Temporal

let test_temporal_basics () =
  let prog = Helpers.call_prog () in
  let t = Temporal.create prog ~window:4 () in
  (* caller entry (proc 0 block 0), callee entry (proc 1 block 0) *)
  Temporal.sink t ~proc:0 ~block:0 ~arm:0;
  Temporal.sink t ~proc:1 ~block:0 ~arm:0;
  Temporal.sink t ~proc:0 ~block:0 ~arm:0;
  Alcotest.(check int) "activations" 3 (Temporal.activations t);
  Alcotest.(check bool) "pair related" true (Temporal.weight t 0 1 > 0.0);
  Alcotest.(check (float 1e-9)) "symmetric" (Temporal.weight t 0 1) (Temporal.weight t 1 0);
  (* non-entry blocks are not activations *)
  Temporal.sink t ~proc:0 ~block:1 ~arm:0;
  Alcotest.(check int) "non-entry ignored" 3 (Temporal.activations t)

let test_temporal_window_limits () =
  (* Procedures further apart than the window are unrelated. *)
  let procs =
    Array.init 6 (fun i ->
        { Olayout_ir.Proc.id = i; name = Printf.sprintf "p%d" i; entry = 0;
          blocks = [| Helpers.block 0 1 Olayout_ir.Block.Ret |] })
  in
  let prog = { Olayout_ir.Prog.name = "t"; base_addr = 0; procs } in
  let t = Temporal.create prog ~window:2 () in
  for p = 0 to 5 do
    Temporal.sink t ~proc:p ~block:0 ~arm:0
  done;
  Alcotest.(check bool) "neighbors related" true (Temporal.weight t 4 5 > 0.0);
  Alcotest.(check (float 1e-9)) "distant unrelated" 0.0 (Temporal.weight t 0 5)

let suite =
  ( "profile",
    [
      Alcotest.test_case "record counts" `Quick test_record_counts;
      Alcotest.test_case "dynamic instrs" `Quick test_dynamic_instrs;
      Alcotest.test_case "flow edges" `Quick test_flow_edges;
      Alcotest.test_case "call sites" `Quick test_call_sites;
      Alcotest.test_case "estimate arms" `Quick test_estimate_arms;
      Alcotest.test_case "estimate cold uniform" `Quick test_estimate_cold_uniform;
      Alcotest.test_case "scale + merge" `Quick test_scale_merge;
      Alcotest.test_case "sampler approximates" `Quick test_sampler_approximates;
      Alcotest.test_case "sampler validation" `Quick test_sampler_period_validation;
      Alcotest.test_case "profile io roundtrip" `Quick test_profile_io_roundtrip;
      Alcotest.test_case "profile io mismatch" `Quick test_profile_io_mismatch;
      Alcotest.test_case "profile io malformed" `Quick test_profile_io_malformed;
      Alcotest.test_case "temporal basics" `Quick test_temporal_basics;
      Alcotest.test_case "temporal window" `Quick test_temporal_window_limits;
      QCheck_alcotest.to_alcotest qcheck_estimate_preserves_block_counts;
    ] )
