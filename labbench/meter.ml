(* Timing from outside the library: spans around the calls into each layer,
   per-iteration accumulators, and the order statistics the report uses.

   A span's name is "<layer>.<what>", where the layer is the library module
   family the call goes into (oltp, profile, core, exec, cachesim, perf) or
   the benchmark's own re-layout loop (relayout).  Spans marked [~always]
   feed end-to-end metrics (the layout calls) and are timed on every
   iteration; the rest are timed only while tracing is on. *)

let now = Unix.gettimeofday

type acc = { mutable total : float; mutable samples : float list }

let tracing = ref false
let totals : (string, acc) Hashtbl.t = Hashtbl.create 32
let self_by_layer : (string, float ref) Hashtbl.t = Hashtbl.create 8

(* Child-time accumulators of the open spans, innermost first, and the
   time covered by outermost spans (what [unattributed] subtracts). *)
let open_children : float ref list ref = ref []
let top_level = ref 0.0

let reset () =
  Hashtbl.reset totals;
  Hashtbl.reset self_by_layer;
  open_children := [];
  top_level := 0.0

let layer_of name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

let book name ~dur ~self =
  (match Hashtbl.find_opt totals name with
  | Some a ->
      a.total <- a.total +. dur;
      a.samples <- dur :: a.samples
  | None -> Hashtbl.replace totals name { total = dur; samples = [ dur ] });
  let layer = layer_of name in
  match Hashtbl.find_opt self_by_layer layer with
  | Some r -> r := !r +. self
  | None -> Hashtbl.replace self_by_layer layer (ref self)

let span ?(always = false) name f =
  if not (always || !tracing) then f ()
  else begin
    let children = ref 0.0 in
    open_children := children :: !open_children;
    let t0 = now () in
    let r = f () in
    let dur = now () -. t0 in
    (match !open_children with
    | _ :: (parent :: _ as rest) ->
        parent := !parent +. dur;
        open_children := rest
    | [ _ ] ->
        top_level := !top_level +. dur;
        open_children := []
    | [] -> assert false);
    book name ~dur ~self:(dur -. !children);
    r
  end

(* Raw seconds booked under [name] in the current iteration (0 if none). *)
let total name =
  match Hashtbl.find_opt totals name with Some a -> a.total | None -> 0.0

(* Individual span durations under [name], in call order. *)
let samples name =
  match Hashtbl.find_opt totals name with
  | Some a -> List.rev a.samples
  | None -> []

let self_time layer =
  match Hashtbl.find_opt self_by_layer layer with Some r -> !r | None -> 0.0

let covered () = !top_level

(* --- order statistics -------------------------------------------------- *)

let sorted xs = List.sort compare xs

let median xs =
  match sorted xs with
  | [] -> nan
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Quartiles by the "exclusive" method of Python's statistics.quantiles
   (its default), so the steadiness script and this program agree. *)
let quartiles xs =
  let a = Array.of_list (sorted xs) in
  let n = Array.length a in
  if n = 0 then (nan, nan)
  else if n = 1 then (a.(0), a.(0))
  else
    let m = n + 1 in
    let q i =
      let j = i * m / 4 in
      let delta = (i * m) - (j * 4) in
      let lo = a.(max 0 (min (n - 1) (j - 1))) and hi = a.(min (n - 1) j) in
      ((lo *. float_of_int (4 - delta)) +. (hi *. float_of_int delta)) /. 4.0
    in
    (q 1, q 3)

(* Nearest-rank percentile, for per-tick latencies. *)
let percentile p xs =
  match sorted xs with
  | [] -> nan
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      let k = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
      a.(max 0 (min (n - 1) (k - 1)))

(* --- process memory ---------------------------------------------------- *)

(* Reset the kernel's peak-RSS mark, so the next [peak_rss_mb] reads the
   peak of what ran since. *)
let reset_peak_rss () =
  try
    let oc = open_out "/proc/self/clear_refs" in
    output_string oc "5";
    close_out oc
  with Sys_error _ -> ()

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" Fun.id
    | _ -> scan ()
    | exception End_of_file -> 0
  in
  let kb = scan () in
  close_in ic;
  float_of_int kb /. 1024.0
