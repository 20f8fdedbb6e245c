module Run = Olayout_exec.Run
module Histogram = Olayout_metrics.Histogram
module Telemetry = Olayout_telemetry.Telemetry

(* Aggregated over every icache instance in the process (figure sweeps run
   dozens); per-instance numbers stay in [t]. *)
let c_accesses = Telemetry.counter "cachesim.icache_accesses"
let c_misses = Telemetry.counter "cachesim.icache_misses"

type config = { name : string; size_bytes : int; line_bytes : int; assoc : int }

let is_pow2 n = n > 0 && n land (n - 1) = 0

let log2 n =
  let rec go n acc = if n <= 1 then acc else go (n lsr 1) (acc + 1) in
  go n 0

let config ?name ~size_kb ~line ~assoc () =
  (* Catch bad geometry where the caller wrote it, not later in [create]
     (a battery or figure may build many configs before creating any). *)
  if size_kb <= 0 then
    invalid_arg (Printf.sprintf "Icache.config: size_kb must be positive (got %d)" size_kb);
  if line <= 0 then
    invalid_arg (Printf.sprintf "Icache.config: line must be positive (got %d)" line);
  if assoc < 1 then
    invalid_arg (Printf.sprintf "Icache.config: assoc must be >= 1 (got %d)" assoc);
  let name =
    match name with
    | Some n -> n
    | None -> Printf.sprintf "%dKB/%dB/%d-way" size_kb line assoc
  in
  { name; size_bytes = size_kb * 1024; line_bytes = line; assoc }

type usage = {
  words_used : Histogram.t;
  word_reuse : Histogram.t;
  lifetime : Histogram.t;
  counts : int array array;  (* per slot, per word: uses since install *)
  mutable lifetime_sum : int;
  mutable lifetime_n : int;
  mutable used_total : int;
}

type t = {
  cfg : config;
  line_shift : int;
  set_mask : int;
  words_per_line : int;
  tags : int array;      (* slot -> line address (addr lsr line_shift); -1 empty *)
  owners : int array;    (* slot -> 0 app / 1 kernel *)
  last_use : int array;  (* slot -> lru stamp *)
  installed : int array; (* slot -> clock at fill *)
  use_mask : int array;  (* slot -> bitmask of words touched since fill *)
  usage : usage option;
  on_miss : (int -> Run.owner -> unit) option;
  on_evict : (evictor:int -> victim:int -> unit) option;
  prefetch_next : int;
  prefetched : bool array;  (* slot -> filled by prefetch, not yet referenced *)
  mutable prefetch_fills : int;
  mutable prefetch_hits : int;
  seen_lines : (int, unit) Hashtbl.t;
  mutable clock : int;
  mutable misses : int;
  mutable miss_app : int;
  mutable miss_kernel : int;
  mutable cold : int;
  mutable fills : int;
  (* displaced.(miss_owner * 2 + victim_owner) *)
  displaced : int array;
}

let owner_code = function Run.App -> 0 | Run.Kernel -> 1

let validate cfg =
  if not (is_pow2 cfg.size_bytes && is_pow2 cfg.line_bytes) then
    invalid_arg "Icache.create: size and line must be powers of two";
  if cfg.line_bytes < 4 then
    invalid_arg "Icache.create: line must hold at least one 4-byte instruction";
  if cfg.assoc < 1 || cfg.size_bytes < cfg.line_bytes * cfg.assoc then
    invalid_arg "Icache.create: bad associativity"

let create ?(track_usage = false) ?on_miss ?on_evict ?(prefetch_next = 0) cfg =
  validate cfg;
  let n_sets = cfg.size_bytes / (cfg.line_bytes * cfg.assoc) in
  let words_per_line = cfg.line_bytes / 4 in
  if track_usage && words_per_line > 62 then
    invalid_arg "Icache.create: usage tracking limited to <= 248-byte lines";
  let slots = n_sets * cfg.assoc in
  {
    cfg;
    line_shift = log2 cfg.line_bytes;
    set_mask = n_sets - 1;
    words_per_line;
    tags = Array.make slots (-1);
    owners = Array.make slots 0;
    last_use = Array.make slots 0;
    installed = Array.make slots 0;
    use_mask = Array.make slots 0;
    usage =
      (if track_usage then
         Some
           {
             words_used = Histogram.create ();
             word_reuse = Histogram.create ~cap:15 ();
             lifetime = Histogram.create ();
             counts = Array.init slots (fun _ -> Array.make words_per_line 0);
             lifetime_sum = 0;
             lifetime_n = 0;
             used_total = 0;
           }
       else None);
    on_miss;
    on_evict;
    prefetch_next;
    prefetched = Array.make slots false;
    prefetch_fills = 0;
    prefetch_hits = 0;
    seen_lines = Hashtbl.create 4096;
    clock = 0;
    misses = 0;
    miss_app = 0;
    miss_kernel = 0;
    cold = 0;
    fills = 0;
    displaced = Array.make 4 0;
  }

let popcount mask =
  let rec go m acc = if m = 0 then acc else go (m land (m - 1)) (acc + 1) in
  go mask 0

let retire t slot =
  (* Account a line leaving the cache (replacement or final flush). *)
  match t.usage with
  | None -> ()
  | Some u ->
      let used = popcount t.use_mask.(slot) in
      Histogram.add u.words_used used;
      u.used_total <- u.used_total + used;
      let life = t.clock - t.installed.(slot) in
      Histogram.add u.lifetime (Histogram.log2_bucket life);
      u.lifetime_sum <- u.lifetime_sum + life;
      u.lifetime_n <- u.lifetime_n + 1;
      let counts = u.counts.(slot) in
      for w = 0 to t.words_per_line - 1 do
        Histogram.add u.word_reuse counts.(w);
        counts.(w) <- 0
      done

(* Install [line_addr] into its set, evicting if needed.  Shared by demand
   misses and prefetches. *)
let install t owner line_addr ~as_prefetch =
  let set = line_addr land t.set_mask in
  let base = set * t.cfg.assoc in
  let victim = ref 0 and invalid = ref (-1) in
  for i = 0 to t.cfg.assoc - 1 do
    if t.tags.(base + i) = -1 && !invalid = -1 then invalid := i;
    if t.last_use.(base + i) < t.last_use.(base + !victim) then victim := i
  done;
  let slot = base + if !invalid >= 0 then !invalid else !victim in
  if t.tags.(slot) <> -1 then begin
    if not as_prefetch then begin
      t.displaced.((owner_code owner * 2) + t.owners.(slot)) <-
        t.displaced.((owner_code owner * 2) + t.owners.(slot)) + 1
    end;
    (match t.on_evict with
    | Some f ->
        f ~evictor:(line_addr lsl t.line_shift) ~victim:(t.tags.(slot) lsl t.line_shift)
    | None -> ());
    (* A line prefetched and never demand-referenced carries no usage
       signal: retiring it would record a words_used = 0, lifetime ~ 0
       entry and skew the Fig 9/11 fractions. *)
    if not t.prefetched.(slot) then retire t slot
  end;
  t.tags.(slot) <- line_addr;
  t.owners.(slot) <- owner_code owner;
  t.last_use.(slot) <- t.clock;
  t.installed.(slot) <- t.clock;
  t.use_mask.(slot) <- 0;
  t.prefetched.(slot) <- as_prefetch;
  t.fills <- t.fills + 1;
  (* Footprint counts demand-referenced lines only: a prefetched line joins
     [seen_lines] on its first demand hit (see [touch]), never on install. *)
  if not as_prefetch && not (Hashtbl.mem t.seen_lines line_addr) then
    Hashtbl.add t.seen_lines line_addr ();
  slot

let resident t line_addr =
  let base = (line_addr land t.set_mask) * t.cfg.assoc in
  let found = ref false in
  for i = 0 to t.cfg.assoc - 1 do
    if t.tags.(base + i) = line_addr then found := true
  done;
  !found

(* Touch one line; [w0..w1] are the word indices used within it. *)
let touch t owner line_addr w0 w1 =
  t.clock <- t.clock + 1;
  Telemetry.incr c_accesses;
  let set = line_addr land t.set_mask in
  let base = set * t.cfg.assoc in
  let way = ref (-1) in
  for i = 0 to t.cfg.assoc - 1 do
    if t.tags.(base + i) = line_addr then way := i
  done;
  let mark slot =
    (match t.usage with
    | Some u ->
        let counts = u.counts.(slot) in
        for w = w0 to w1 do
          counts.(w) <- counts.(w) + 1
        done
    | None -> ());
    let bits = ((1 lsl (w1 - w0 + 1)) - 1) lsl w0 in
    t.use_mask.(slot) <- t.use_mask.(slot) lor bits
  in
  if !way >= 0 then begin
    let slot = base + !way in
    if t.prefetched.(slot) then begin
      t.prefetched.(slot) <- false;
      t.prefetch_hits <- t.prefetch_hits + 1;
      if not (Hashtbl.mem t.seen_lines line_addr) then
        Hashtbl.add t.seen_lines line_addr ()
    end;
    t.last_use.(slot) <- t.clock;
    mark slot
  end
  else begin
    t.misses <- t.misses + 1;
    Telemetry.incr c_misses;
    (* Compulsory miss: first-ever demand reference to the line, wherever
       it lands — an empty slot or (once the cache is warm) an occupied
       one.  Lines first seen as prefetch hits never miss, so never count
       as cold. *)
    if not (Hashtbl.mem t.seen_lines line_addr) then t.cold <- t.cold + 1;
    (match owner with
    | Run.App -> t.miss_app <- t.miss_app + 1
    | Run.Kernel -> t.miss_kernel <- t.miss_kernel + 1);
    (match t.on_miss with
    | Some f -> f (line_addr lsl t.line_shift) owner
    | None -> ());
    let slot = install t owner line_addr ~as_prefetch:false in
    mark slot;
    (* Sequential stream-buffer prefetch of the following lines. *)
    for next = 1 to t.prefetch_next do
      let line = line_addr + next in
      if not (resident t line) then begin
        ignore (install t owner line ~as_prefetch:true);
        t.prefetch_fills <- t.prefetch_fills + 1
      end
    done
  end

let access_run t (r : Run.t) =
  let first = r.addr and last = r.addr + (r.len * 4) - 1 in
  let first_line = first lsr t.line_shift and last_line = last lsr t.line_shift in
  let lw = t.words_per_line in
  if first_line = last_line then
    touch t r.owner first_line ((first lsr 2) land (lw - 1)) ((last lsr 2) land (lw - 1))
  else begin
    touch t r.owner first_line ((first lsr 2) land (lw - 1)) (lw - 1);
    for line = first_line + 1 to last_line - 1 do
      touch t r.owner line 0 (lw - 1)
    done;
    touch t r.owner last_line 0 ((last lsr 2) land (lw - 1))
  end

let flush_residents t =
  Array.iteri
    (fun slot tag ->
      if tag <> -1 then begin
        (* Same exclusion as replacement: a prefetched-but-never-referenced
           line contributes no usage observation. *)
        if not t.prefetched.(slot) then retire t slot;
        t.tags.(slot) <- -1;
        t.use_mask.(slot) <- 0;
        t.prefetched.(slot) <- false
      end)
    t.tags

let cfg t = t.cfg
let accesses t = t.clock
let misses t = t.misses
let misses_of t = function Run.App -> t.miss_app | Run.Kernel -> t.miss_kernel
let cold_misses t = t.cold

let displaced t ~miss ~victim =
  t.displaced.((owner_code miss * 2) + owner_code victim)

let unique_lines t = Hashtbl.length t.seen_lines
let lines_filled t = t.fills
let instrs_fetched_into_cache t = t.fills * t.words_per_line

let usage_exn t =
  match t.usage with
  | Some u -> u
  | None -> invalid_arg "Icache: usage tracking not enabled"

let words_used_histogram t = (usage_exn t).words_used
let word_reuse_histogram t = (usage_exn t).word_reuse
let lifetime_histogram t = (usage_exn t).lifetime

let mean_lifetime t =
  let u = usage_exn t in
  if u.lifetime_n = 0 then 0.0
  else float_of_int u.lifetime_sum /. float_of_int u.lifetime_n

let words_used_total t = (usage_exn t).used_total

let prefetch_fills t = t.prefetch_fills
let prefetch_hits t = t.prefetch_hits
