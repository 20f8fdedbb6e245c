open Olayout_ir

type t = {
  prog : Prog.t;
  blocks : int array array;
  arms : int array array array;
}

let create prog =
  let shape f =
    Array.map (fun (p : Proc.t) -> Array.map f p.blocks) prog.Prog.procs
  in
  {
    prog;
    blocks = shape (fun _ -> 0);
    arms = shape (fun b -> Array.make (Block.arm_count b) 0);
  }

let prog t = t.prog

let record t ~proc ~block ~arm =
  t.blocks.(proc).(block) <- t.blocks.(proc).(block) + 1;
  let arms = t.arms.(proc).(block) in
  arms.(arm) <- arms.(arm) + 1

let record_block t ~proc ~block ~count =
  t.blocks.(proc).(block) <- t.blocks.(proc).(block) + count

let block_count t ~proc ~block = t.blocks.(proc).(block)
let arm_count t ~proc ~block ~arm = t.arms.(proc).(block).(arm)

let proc_entry_count t p =
  let entry = (Prog.proc t.prog p).Proc.entry in
  t.blocks.(p).(entry)

let dynamic_instrs t =
  let total = ref 0 in
  Prog.iter_blocks t.prog (fun p b ->
      let c = t.blocks.(p.Proc.id).(b.Block.id) in
      total := !total + (c * Block.source_instrs b));
  !total

type flow_edge = { src : Block.id; arm : int; dst : Block.id; weight : float }

let proc_flow_edges t pid =
  let p = Prog.proc t.prog pid in
  let edges = ref [] in
  Array.iter
    (fun (b : Block.t) ->
      let n = Block.arm_count b in
      for arm = 0 to n - 1 do
        match Block.arm_target b arm with
        | None -> ()
        | Some dst ->
            let weight = float_of_int t.arms.(pid).(b.id).(arm) in
            edges := { src = b.id; arm; dst; weight } :: !edges
      done)
    p.blocks;
  List.rev !edges

let call_site_counts t =
  let acc = ref [] in
  Prog.iter_blocks t.prog (fun p b ->
      match b.Block.term with
      | Block.Call { callee; _ } ->
          let c = t.blocks.(p.Proc.id).(b.Block.id) in
          if c > 0 then acc := (p.Proc.id, callee, c) :: !acc
      | _ -> ());
  List.rev !acc

let estimate_arms t =
  let t' = create t.prog in
  Array.iteri
    (fun pid row -> Array.iteri (fun bid c -> t'.blocks.(pid).(bid) <- c) row)
    t.blocks;
  Prog.iter_blocks t.prog (fun p b ->
      let pid = p.Proc.id and bid = b.Block.id in
      let c = t.blocks.(pid).(bid) in
      let n = Block.arm_count b in
      if n = 1 then t'.arms.(pid).(bid).(0) <- c
      else begin
        (* Apportion in proportion to successor block counts; fall back to a
           uniform split when all successors are cold. *)
        let succ_counts =
          Array.init n (fun arm ->
              match Block.arm_target b arm with
              | Some d -> t.blocks.(pid).(d)
              | None -> 0)
        in
        let total = Array.fold_left ( + ) 0 succ_counts in
        if total = 0 then
          Array.iteri (fun arm _ -> t'.arms.(pid).(bid).(arm) <- c / n) succ_counts
        else begin
          let assigned = ref 0 in
          for arm = 0 to n - 1 do
            let share = c * succ_counts.(arm) / total in
            t'.arms.(pid).(bid).(arm) <- share;
            assigned := !assigned + share
          done;
          (* Give rounding leftovers to the heaviest arm. *)
          let best = ref 0 in
          for arm = 1 to n - 1 do
            if succ_counts.(arm) > succ_counts.(!best) then best := arm
          done;
          t'.arms.(pid).(bid).(!best) <-
            t'.arms.(pid).(bid).(!best) + (c - !assigned)
        end
      end);
  t'

let map2_profile f a b =
  let t = create a.prog in
  Array.iteri
    (fun pid row ->
      Array.iteri
        (fun bid _ ->
          t.blocks.(pid).(bid) <- f a.blocks.(pid).(bid) b.blocks.(pid).(bid);
          Array.iteri
            (fun arm _ ->
              t.arms.(pid).(bid).(arm) <-
                f a.arms.(pid).(bid).(arm) b.arms.(pid).(bid).(arm))
            t.arms.(pid).(bid))
        row)
    t.blocks;
  t

let scale a factor =
  let f x _ = int_of_float (float_of_int x *. factor) in
  map2_profile f a a

let merge a b =
  if a.prog != b.prog && a.prog.Prog.name <> b.prog.Prog.name then
    invalid_arg "Profile.merge: different programs";
  map2_profile ( + ) a b

let proc_equal a b pid = a.blocks.(pid) = b.blocks.(pid) && a.arms.(pid) = b.arms.(pid)

let total_block_events t =
  Array.fold_left (fun acc row -> Array.fold_left ( + ) acc row) 0 t.blocks

(* --- persistence --- *)

let magic = "olayout-profile v1"

let output oc t =
  Printf.fprintf oc "%s\n" magic;
  Printf.fprintf oc "program %s %d\n" t.prog.Prog.name (Prog.n_procs t.prog);
  Array.iteri
    (fun pid row ->
      Printf.fprintf oc "proc %d %d\n" pid (Array.length row);
      Array.iteri
        (fun bid count ->
          Printf.fprintf oc "%d" count;
          Array.iter (fun a -> Printf.fprintf oc " %d" a) t.arms.(pid).(bid);
          Printf.fprintf oc "\n")
        row)
    t.blocks

exception Load_error of string

let input ?(source = "<channel>") prog ic =
  let lineno = ref 0 in
  let fail fmt =
    Printf.ksprintf
      (fun msg -> raise (Load_error (Printf.sprintf "%s:%d: %s" source !lineno msg)))
      fmt
  in
  let line () =
    incr lineno;
    try Stdlib.input_line ic with End_of_file -> fail "truncated profile (unexpected end of file)"
  in
  let count s =
    match int_of_string_opt s with
    | Some n when n >= 0 -> n
    | _ -> fail "%S is not a count" s
  in
  if line () <> magic then fail "not an olayout profile (expected %S)" magic;
  (match String.split_on_char ' ' (line ()) with
  | [ "program"; name; n ] ->
      if name <> prog.Prog.name then
        fail "profile is for program %s, not %s" name prog.Prog.name;
      if count n <> Prog.n_procs prog then
        fail "profile has %s procedures, program %s has %d" n name (Prog.n_procs prog)
  | _ -> fail "bad program header (expected \"program NAME PROCS\")");
  let t = create prog in
  for pid = 0 to Prog.n_procs prog - 1 do
    (match String.split_on_char ' ' (line ()) with
    | [ "proc"; p; n ] ->
        if count p <> pid then fail "expected proc %d, found proc %s" pid p;
        if count n <> Array.length t.blocks.(pid) then
          fail "proc %d has %s blocks in the profile, %d in the program" pid n
            (Array.length t.blocks.(pid))
    | _ -> fail "bad proc header (expected \"proc %d BLOCKS\")" pid);
    for bid = 0 to Array.length t.blocks.(pid) - 1 do
      let arms = t.arms.(pid).(bid) in
      match List.map count (String.split_on_char ' ' (line ())) with
      | c :: counts when List.length counts = Array.length arms ->
          t.blocks.(pid).(bid) <- c;
          List.iteri (fun arm a -> arms.(arm) <- a) counts
      | _ ->
          fail "proc %d block %d: expected a block count and %d arm counts" pid bid
            (Array.length arms)
    done
  done;
  t

let save_file path t =
  let oc = open_out path in
  match output oc t with
  | () -> close_out oc
  | exception e ->
      close_out_noerr oc;
      raise e

let load_file prog path =
  let ic = try open_in path with Sys_error msg -> raise (Load_error msg) in
  match input ~source:path prog ic with
  | t ->
      close_in ic;
      t
  | exception e ->
      close_in_noerr ic;
      raise e
