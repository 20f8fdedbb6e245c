(* The calibration kernel: fixed work whose duration measures how fast the
   host is running right now.  Every timed sample is bracketed by two runs
   of it, and host-time metrics are reported in reference seconds
   (raw seconds * [reference_s] / measured kernel seconds), which cancels
   the slow drift of a shared host's speed over minutes.

   The kernel never calls the library and allocates nothing: the buffer is
   an unscanned bigarray made once at start-up, and the loop keeps its
   state in local mutable variables.  It mixes integer hashing (a
   SplitMix-style finaliser) with dependent random reads and writes over
   8 MiB, more than a typical L2, so it is sensitive to the same host
   resources the pipeline is: ALU throughput and the memory hierarchy. *)

open Bigarray

let words = 1 lsl 20 (* 8 MiB of native ints *)

(* Kernel time on the reference host; fixes the unit of reference
   seconds.  Any constant works, since the benchmark only compares
   reference seconds with reference seconds. *)
let reference_s = 0.080

let buf : (int, int_elt, c_layout) Array1.t =
  let b = Array1.create int c_layout words in
  for i = 0 to words - 1 do
    Array1.unsafe_set b i (i * 0x9E3779B1)
  done;
  b

(* Three phases: hashing with a data-dependent branch over a 4 KiB corner
   of the buffer (core throughput and branch prediction), then over the
   whole buffer a dependent chain, where each address comes from the value
   read before it (memory latency), and independent addresses hashed from
   the step counter (memory throughput). *)
let compute_steps = 1 lsl 20
let dependent_steps = 1 lsl 18
let independent_steps = 1 lsl 20

let run () =
  let mask = words - 1 in
  let x = ref (Array1.unsafe_get buf 0) in
  for i = 1 to compute_steps do
    let z = !x + i in
    let z = (z lxor (z lsr 31)) * 0x5851F42D4C957F2D in
    let z = z lxor (z lsr 29) in
    let j = z land 511 in
    if z land 1 = 0 then Array1.unsafe_set buf j (Array1.unsafe_get buf j + z)
    else x := !x lxor Array1.unsafe_get buf j;
    x := !x + (z lsr 17)
  done;
  for i = 1 to dependent_steps do
    let z = !x + i in
    let z = (z lxor (z lsr 31)) * 0x5851F42D4C957F2D in
    let z = z lxor (z lsr 29) in
    let j = z land mask in
    let v = Array1.unsafe_get buf j in
    Array1.unsafe_set buf j (v + z);
    x := v lxor z
  done;
  for i = 1 to independent_steps do
    let z = i * 0x1E3779B97F4A7C15 in
    let z = (z lxor (z lsr 31)) * 0x5851F42D4C957F2D in
    let j = (z lxor (z lsr 29)) land mask in
    let v = Array1.unsafe_get buf j in
    Array1.unsafe_set buf j (v + z);
    x := !x + v
  done;
  Array1.unsafe_set buf 0 !x

(* Seconds one kernel run takes now. *)
let measure () =
  let t0 = Unix.gettimeofday () in
  run ();
  Unix.gettimeofday () -. t0
