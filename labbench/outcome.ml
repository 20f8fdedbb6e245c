(* What one workload iteration hands back to lab.ml. *)

type t = {
  analysis : Analysis.t;
  text_kb : float;  (* text size of the optimised layout *)
  facts : (string * string) list;
      (* deterministic facts: equal on every iteration of a seed *)
  counts : (string * float) list;  (* per-layer work counts *)
  capture_instrs : int;  (* instructions walked by the measured capture *)
  checks : heavy:bool -> (string * bool) list;
      (* correctness checks, run after the timed pass; [heavy] adds the
         reference re-computations, run once per process *)
}

(* A workload after set-up: its measured pass, and for workloads whose
   layout is too short to time alone, one layout repeat for a batch. *)
type ready = {
  train_instrs : int;
  pass : unit -> t;
  layout_once : (unit -> unit) option;
}

(* The seed drives the transaction and query streams only; the program
   (binaries, DSS engine and table) is fixed.  Seed 7 gives the training
   and measured streams of the harness's quick figures (seeds 1 and
   1009). *)
let train_seed seed = seed - 6
let measure_seed seed = seed + 1002
let program_seed = 7

(* Shared by every workload: facts common to both streams plus the
   quality metrics' exact inputs. *)
let quality_facts ~text_bytes a =
  Analysis.facts a @ [ ("opt.text_bytes", string_of_int text_bytes) ]
