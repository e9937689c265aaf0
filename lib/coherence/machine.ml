type hint = Shared_data | Private_to of int | Read_only

type deactivation = Off | Private_only | Private_and_ro

type params = {
  cores : int;
  cores_per_socket : int;
  cache_kb : int;
  ways : int;
  line_bytes : int;
  l1_hit : int;
  dir_lookup : int;
  hop_latency : int;
  mem_latency : int;
  cache_to_cache : int;
  inval_cost : int;
  ctrl_energy : float;
  data_energy : float;
}

let default_params ~cores ~cores_per_socket =
  {
    cores;
    cores_per_socket;
    cache_kb = 256;
    ways = 8;
    line_bytes = 64;
    l1_hit = 4;
    dir_lookup = 20;
    hop_latency = 40;
    mem_latency = 150;
    cache_to_cache = 40;
    inval_cost = 20;
    ctrl_energy = 1.0;
    data_energy = 4.0;
  }

type counters = {
  accesses : int;
  hits : int;
  misses : int;
  dir_requests : int;
  invalidations : int;
  data_transfers : int;
  writebacks : int;
  ctrl_msgs : int;
  data_msgs : int;
}

(* The directory: one int per tracked line.  0 (the Itbl dummy) means
   no entry; a negative value [lnot o] names the single owner [o]; a
   positive one is the sharer set, bit [i] for core [i].  Every value
   is an immediate, so directory updates allocate nothing, and the
   sign bit is the owner tag, which caps a machine at [max_cores]. *)
let max_cores = Sys.int_size - 1

let owner core = lnot core

(* The cores a directory value names, as a bitmask. *)
let sharer_mask d = if d < 0 then 1 lsl lnot d else d

(* An all-float record is stored flat, so accumulating into it boxes
   nothing; a float field beside the int counters would box each
   update. *)
type energy = { mutable total : float }

type t = {
  p : params;
  deact : deactivation;
  obs : Iw_obs.Obs.t;
  caches : Cache.t array;
  dir : int Iw_engine.Itbl.t;
  (* Lines a deactivated machine has coherence-tracked, for
     [swmr_holds].  Off machines leave both empty: they track every
     line they touch. *)
  tracked_lines : unit Iw_engine.Itbl.t;
  (* Direct-mapped filter in front of [tracked_lines]: marking is
     idempotent, so skipping the table probe when the filter already
     holds the line is a pure win.  The table can grow to megabytes
     while the filter stays cache-resident.  -1 = empty (lines are
     non-negative). *)
  tracked_filter : int array;
  cycles : int array;
  mutable c_accesses : int;
  mutable c_hits : int;
  mutable c_misses : int;
  mutable c_dir : int;
  mutable c_inval : int;
  mutable c_data : int;
  mutable c_wb : int;
  mutable c_ctrl_msgs : int;
  mutable c_data_msgs : int;
  energy : energy;
}

let create ?obs ?params deact =
  let obs = match obs with Some o -> o | None -> Iw_obs.Obs.inherit_trace () in
  let p =
    match params with
    | Some p -> p
    | None -> default_params ~cores:24 ~cores_per_socket:12
  in
  if p.cores < 1 || p.cores > max_cores then
    invalid_arg
      (Printf.sprintf
         "Machine.create: cores = %d outside 1..%d (the sharer mask's width)"
         p.cores max_cores);
  if p.cores_per_socket < 1 then
    invalid_arg
      (Printf.sprintf "Machine.create: cores_per_socket = %d must be positive"
         p.cores_per_socket);
  let off = deact = Off in
  {
    p;
    deact;
    obs;
    caches =
      Array.init p.cores (fun _ ->
          Cache.create ~size_kb:p.cache_kb ~ways:p.ways ~line_bytes:p.line_bytes);
    dir = Iw_engine.Itbl.create ~capacity:(1 lsl 16) ~dummy:0 ();
    tracked_lines =
      Iw_engine.Itbl.create ~capacity:(if off then 8 else 1 lsl 16) ~dummy:() ();
    tracked_filter = (if off then [||] else Array.make (1 lsl 15) (-1));
    cycles = Array.make p.cores 0;
    c_accesses = 0;
    c_hits = 0;
    c_misses = 0;
    c_dir = 0;
    c_inval = 0;
    c_data = 0;
    c_wb = 0;
    c_ctrl_msgs = 0;
    c_data_msgs = 0;
    energy = { total = 0.0 };
  }

let params t = t.p

let socket t core = core / t.p.cores_per_socket

let hops t a b =
  if a = b then 0 else if socket t a = socket t b then 1 else 3

(* Home (directory slice / memory controller) of a line: address hash
   across cores.  Deactivated private data is instead homed at its
   owner — the first-touch placement a runtime that knows ownership
   can guarantee. *)
let home t line = line * 2654435761 mod t.p.cores |> abs

let ctrl_msg t h =
  if h > 0 then begin
    t.c_ctrl_msgs <- t.c_ctrl_msgs + 1;
    t.energy.total <- t.energy.total +. (t.p.ctrl_energy *. float_of_int h)
  end

let data_msg t h =
  t.c_data_msgs <- t.c_data_msgs + 1;
  if h > 0 then
    t.energy.total <- t.energy.total +. (t.p.data_energy *. float_of_int h)

let charge t core c = t.cycles.(core) <- t.cycles.(core) + c

(* Handle an eviction [e] returned by Cache.install under tracked
   MESI.  Exclusive and Shared copies drop silently; the directory may
   retain a stale sharer, which later invalidations handle as no-ops. *)
let tracked_evict t core e =
  if e >= 0 && Cache.evicted_state e = Cache.Modified then begin
    let line = Cache.evicted_line e in
    let h = hops t core (home t line) in
    t.c_wb <- t.c_wb + 1;
    data_msg t h;
    Iw_engine.Itbl.remove t.dir line
  end

(* Invalidate one remote sharer through the directory: a request and
   an ack, each [ho] hops.  Dir_drop_ack injection: the ack is lost on
   the way home, so the directory times out and replays the
   invalidation (a second request/ack pair) and the requester stalls
   for the extra round trip.  The copy itself was already dropped by
   the first request, so replaying can never create a second writer —
   SWMR is preserved by construction and asserted by [swmr_holds].
   Returns [ho]. *)
let inval_sharer t plan ~core ~line ~addr o =
  t.c_inval <- t.c_inval + 1;
  let ho = hops t (home t line) o in
  ctrl_msg t ho;
  (* ack *)
  ctrl_msg t ho;
  if
    Iw_faults.Plan.enabled plan
    && Iw_faults.Plan.fire plan t.obs ~kind:Iw_faults.Plan.Dir_drop_ack
         ~cpu:core ~ts:t.cycles.(core)
  then begin
    ctrl_msg t ho;
    ctrl_msg t ho;
    Iw_obs.Counter.incr t.obs.Iw_obs.Obs.counters Iw_obs.Counter.Dir_ack_retry;
    charge t core (t.p.inval_cost + (2 * ho * t.p.hop_latency))
  end;
  Cache.invalidate t.caches.(o) addr;
  ho

(* Invalidate every core in [mask], in ascending core id, and stall the
   requester for the round trip to the farthest one. *)
let inval_sharers t plan ~core ~line ~addr mask =
  let far = ref 0 in
  if mask <> 0 then
    for o = 0 to t.p.cores - 1 do
      if mask land (1 lsl o) <> 0 then begin
        let ho = inval_sharer t plan ~core ~line ~addr o in
        if ho > !far then far := ho
      end
    done;
  charge t core (t.p.inval_cost + (2 * !far * t.p.hop_latency))

(* A request to the line's home directory; returns the hops to it. *)
let dir_request t ~core ~line =
  t.c_dir <- t.c_dir + 1;
  Iw_obs.Counter.incr t.obs.Iw_obs.Obs.counters Iw_obs.Counter.Dir_transitions;
  let hm = hops t core (home t line) in
  ctrl_msg t hm;
  charge t core ((2 * hm * t.p.hop_latency) + t.p.dir_lookup);
  hm

let is_deactivated t hint =
  match (t.deact, hint) with
  | Off, _ -> false
  | (Private_only | Private_and_ro), Private_to _ -> true
  | Private_and_ro, Read_only -> true
  | Private_only, Read_only -> false
  | _, Shared_data -> false

(* Coherence off: no directory, no invalidations.  Private data is
   homed locally; read-only data replicates freely. *)
let deactivated_access t cache ~core ~addr ~write ~hint =
  (match hint with
  | Read_only when write ->
      invalid_arg "Machine.access: write to read-only-hinted data"
  | _ -> ());
  match Cache.lookup cache addr with
  | Cache.Modified | Cache.Exclusive | Cache.Shared_state ->
      t.c_hits <- t.c_hits + 1;
      charge t core t.p.l1_hit;
      if write then Cache.set_state cache addr Cache.Modified
  | Cache.Invalid ->
      t.c_misses <- t.c_misses + 1;
      let h = match hint with Private_to _ -> 0 | _ -> 1 in
      charge t core (t.p.mem_latency + (2 * h * t.p.hop_latency));
      t.c_data <- t.c_data + 1;
      data_msg t h;
      let st = if write then Cache.Modified else Cache.Exclusive in
      let e = Cache.install cache addr st in
      if e >= 0 && Cache.evicted_state e = Cache.Modified then begin
        (* Write back to the local (private) or home (ro) memory. *)
        t.c_wb <- t.c_wb + 1;
        data_msg t h
      end

(* A read miss on a line another core [o] owns.  The home forwards the
   request; the owner downgrades, and a Modified copy is written back
   home.  Dir_stale injection: the named owner silently dropped its
   copy, so the forward bounces.  A Modified copy is written back as
   part of the drop (the fault may not lose data); recovery is one
   layer up in the protocol — the home nacks the forward and memory
   supplies the line. *)
let forward_read t plan ~core ~line ~addr ~hm o =
  let fwd = hops t (home t line) o in
  let stale =
    Iw_faults.Plan.enabled plan
    && Iw_faults.Plan.fire plan t.obs ~kind:Iw_faults.Plan.Dir_stale ~cpu:core
         ~ts:t.cycles.(core)
  in
  if stale then begin
    if Cache.lookup t.caches.(o) addr = Cache.Modified then begin
      t.c_wb <- t.c_wb + 1;
      data_msg t fwd
    end;
    Cache.invalidate t.caches.(o) addr;
    ctrl_msg t fwd;
    (* nack back to the home *)
    ctrl_msg t fwd;
    Iw_obs.Counter.incr t.obs.Iw_obs.Obs.counters
      Iw_obs.Counter.Dir_stale_refetch;
    charge t core (t.p.mem_latency + (((2 * fwd) + (2 * hm)) * t.p.hop_latency));
    t.c_data <- t.c_data + 1;
    data_msg t (max hm 1)
  end
  else begin
    ctrl_msg t fwd;
    charge t core
      (t.p.cache_to_cache + ((fwd + hops t o core) * t.p.hop_latency));
    t.c_data <- t.c_data + 1;
    data_msg t (max (hops t o core) 1);
    if Cache.lookup t.caches.(o) addr = Cache.Modified then begin
      t.c_wb <- t.c_wb + 1;
      data_msg t fwd
    end;
    Cache.set_state t.caches.(o) addr Cache.Shared_state
  end

(* Memory at the home supplies the line. *)
let from_memory t core hm =
  charge t core t.p.mem_latency;
  t.c_data <- t.c_data + 1;
  data_msg t (max hm 1)

(* A write hit on a Shared copy: claim ownership and invalidate the
   other sharers via the directory. *)
let upgrade t plan cache ~core ~line ~addr =
  t.c_hits <- t.c_hits + 1;
  ignore (dir_request t ~core ~line);
  let prev = Iw_engine.Itbl.find t.dir line in
  Iw_engine.Itbl.set t.dir line (owner core);
  inval_sharers t plan ~core ~line ~addr (sharer_mask prev land lnot (1 lsl core));
  Cache.set_state cache addr Cache.Modified

(* A miss through the directory.  The next directory state is a pure
   function of the previous one, so it is written first and the
   protocol side effects follow from the old state. *)
let tracked_miss t plan cache ~core ~line ~addr ~write =
  t.c_misses <- t.c_misses + 1;
  let hm = dir_request t ~core ~line in
  let prev = Iw_engine.Itbl.find t.dir line in
  Iw_engine.Itbl.set t.dir line
    (if write || prev = 0 || prev = owner core then owner core
     else sharer_mask prev lor (1 lsl core));
  (* Another core owns the line: -1 when there is no such owner. *)
  let other_owner = if prev < 0 && prev <> owner core then lnot prev else -1 in
  if prev = 0 then begin
    from_memory t core hm;
    tracked_evict t core
      (Cache.install cache addr (if write then Cache.Modified else Cache.Exclusive))
  end
  else if write then begin
    (* Invalidate everyone; data comes cache-to-cache from the owner
       when there is one. *)
    inval_sharers t plan ~core ~line ~addr (sharer_mask prev land lnot (1 lsl core));
    if other_owner >= 0 then begin
      let ho = hops t other_owner core in
      charge t core (t.p.cache_to_cache + (ho * t.p.hop_latency));
      t.c_data <- t.c_data + 1;
      data_msg t (max ho 1)
    end
    else from_memory t core hm;
    tracked_evict t core (Cache.install cache addr Cache.Modified)
  end
  else begin
    if other_owner >= 0 then forward_read t plan ~core ~line ~addr ~hm other_owner
    else from_memory t core hm;
    tracked_evict t core (Cache.install cache addr Cache.Shared_state)
  end

let access t ~core ~addr ~write ~hint =
  if core < 0 || core >= t.p.cores then invalid_arg "Machine.access: bad core";
  t.c_accesses <- t.c_accesses + 1;
  let cache = t.caches.(core) in
  if is_deactivated t hint then
    deactivated_access t cache ~core ~addr ~write ~hint
  else begin
    (* Tracked MESI through the directory. *)
    let line = Cache.line_of_addr cache addr in
    if t.deact <> Off then begin
      let fi = (line * 2654435761) lsr 16 land ((1 lsl 15) - 1) in
      if Array.unsafe_get t.tracked_filter fi <> line then begin
        Array.unsafe_set t.tracked_filter fi line;
        Iw_engine.Itbl.set t.tracked_lines line ()
      end
    end;
    (* Spurious shootdown injection: the line vanishes from this
       core's cache as if a remote invalidation hit it.  A Modified
       line is written back first (the fault may not lose data), then
       the access below misses and the protocol refetches through the
       directory — MESI's own machinery is the recovery path, and
       SWMR still holds because dropping copies can never add a
       second writer. *)
    let plan = Iw_faults.Plan.ambient () in
    (if
       Iw_faults.Plan.enabled plan
       && Iw_faults.Plan.fire plan t.obs ~kind:Iw_faults.Plan.Tlb_shootdown
            ~cpu:core ~ts:t.cycles.(core)
     then
       match Cache.lookup cache addr with
       | Cache.Invalid -> ()
       | st ->
           if st = Cache.Modified then begin
             let h = hops t core (home t line) in
             t.c_wb <- t.c_wb + 1;
             data_msg t h;
             Iw_engine.Itbl.remove t.dir line
           end;
           Cache.invalidate cache addr;
           charge t core t.p.inval_cost);
    match Cache.lookup cache addr with
    | Cache.Invalid -> tracked_miss t plan cache ~core ~line ~addr ~write
    | Cache.Shared_state when write -> upgrade t plan cache ~core ~line ~addr
    | st ->
        t.c_hits <- t.c_hits + 1;
        charge t core t.p.l1_hit;
        if write && st = Cache.Exclusive then
          Cache.set_state cache addr Cache.Modified
  end

let core_cycles t core = t.cycles.(core)

let makespan t = Array.fold_left max 0 t.cycles

(* Epoch boundary: an instant on the machine track at the current
   makespan — workload drivers call this at round/phase boundaries so
   a trace shows where the protocol's time went between epochs. *)
let epoch t ~name =
  let tr = t.obs.Iw_obs.Obs.trace in
  if tr.Iw_obs.Trace.enabled then
    Iw_obs.Trace.instant tr ~name ~cat:"coherence" ~cpu:(-1) ~ts:(makespan t) ()

let counters t =
  {
    accesses = t.c_accesses;
    hits = t.c_hits;
    misses = t.c_misses;
    dir_requests = t.c_dir;
    invalidations = t.c_inval;
    data_transfers = t.c_data;
    writebacks = t.c_wb;
    ctrl_msgs = t.c_ctrl_msgs;
    data_msgs = t.c_data_msgs;
  }

let interconnect_energy t = t.energy.total

(* Single-writer-multiple-reader: for every line that has ever been
   coherence-tracked, an M or E copy in one cache excludes any copy in
   any other cache.  An Off machine tracks every line it touches.
   [copies] holds, per line, twice its copy count plus 1 once any copy
   is M or E; an int table allocates nothing per line. *)
let swmr_holds t =
  let copies = Iw_engine.Itbl.create ~dummy:0 () in
  Array.iter
    (fun cache ->
      Cache.fold cache ~init:() ~f:(fun () line st ->
          if t.deact = Off || Iw_engine.Itbl.mem t.tracked_lines line then
            let excl =
              match st with Cache.Modified | Cache.Exclusive -> 1 | _ -> 0
            in
            Iw_engine.Itbl.set copies line
              ((Iw_engine.Itbl.find copies line + 2) lor excl)))
    t.caches;
  let ok = ref true in
  Iw_engine.Itbl.iter (fun _ v -> if v land 1 = 1 && v >= 4 then ok := false) copies;
  !ok
