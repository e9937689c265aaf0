(* The reference model for the differential coherence oracle: the
   list-directory machine that [Iw_coherence.Machine] replaced, kept
   test-only.  Its directory is a variant per line with sharers in an
   [int list] rebuilt on every change — slow, allocating, and easy to
   read, which is the point.  The property in test_coherence.ml drives
   it and the bitmask machine with the same accesses and fault plans
   and demands identical counters, cycles, energy bits and SWMR. *)

open Iw_coherence

type hint = Machine.hint = Shared_data | Private_to of int | Read_only

type deactivation = Machine.deactivation = Off | Private_only | Private_and_ro

type params = Machine.params = {
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

type counters = Machine.counters = {
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

(* [DNone] is the Itbl dummy standing for "no directory entry". *)
type dstate = DNone | DOwned of int | DShared of int list

type t = {
  p : params;
  deact : deactivation;
  obs : Iw_obs.Obs.t;
  caches : Cache.t array;
  dir : dstate Iw_engine.Itbl.t;
  (* One [DOwned i] per core, reused for every directory write: the
     single-owner state is by far the most common, and a shared block
     stays cache-hot where a fresh allocation per miss would not. *)
  owned : dstate array;
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
  mutable energy : float;
}

let create ?obs ?params deact =
  let obs = match obs with Some o -> o | None -> Iw_obs.Obs.inherit_trace () in
  let p =
    match params with
    | Some p -> p
    | None -> Machine.default_params ~cores:24 ~cores_per_socket:12
  in
  {
    p;
    deact;
    obs;
    caches =
      Array.init p.cores (fun _ ->
          Cache.create ~size_kb:p.cache_kb ~ways:p.ways ~line_bytes:p.line_bytes);
    dir = Iw_engine.Itbl.create ~capacity:(1 lsl 16) ~dummy:DNone ();
    owned = Array.init p.cores (fun i -> DOwned i);
    tracked_lines = Iw_engine.Itbl.create ~capacity:(1 lsl 16) ~dummy:() ();
    tracked_filter = Array.make (1 lsl 15) (-1);
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
    energy = 0.0;
  }

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
    t.energy <- t.energy +. (t.p.ctrl_energy *. float_of_int h)
  end

let data_msg t h =
  t.c_data_msgs <- t.c_data_msgs + 1;
  if h > 0 then t.energy <- t.energy +. (t.p.data_energy *. float_of_int h)

let charge t core c = t.cycles.(core) <- t.cycles.(core) + c

(* [Cache.install]'s result as the option this model was written
   against. *)
let install_evicted cache addr st =
  let e = Cache.install cache addr st in
  if e < 0 then None else Some (Cache.evicted_line e, Cache.evicted_state e)

(* Handle an eviction returned by Cache.install under tracked MESI. *)
let tracked_evict t core = function
  | None -> ()
  | Some (line, st) -> (
      match st with
      | Cache.Modified ->
          let h = hops t core (home t line) in
          t.c_wb <- t.c_wb + 1;
          data_msg t h;
          Iw_engine.Itbl.remove t.dir line
      | Cache.Exclusive | Cache.Shared_state ->
          (* Silent drop; the directory may retain a stale sharer,
             which later invalidations handle as no-ops. *)
          ()
      | Cache.Invalid -> ())

let deact_evict t core hint = function
  | None -> ()
  | Some (_line, Cache.Modified) ->
      (* Write back to the local (private) or home (ro) memory. *)
      let h = match hint with Private_to _ -> 0 | _ -> 1 in
      t.c_wb <- t.c_wb + 1;
      data_msg t h;
      ignore core
  | Some _ -> ()

(* The one change from the list machine this model preserves: sharers
   are visited in ascending core id (the list held the most recent
   reader first), the order the bitmask machine walks its mask in.
   Only a Dir_drop_ack schedule can tell the two orders apart. *)
let sharers_of = function
  | DNone -> []
  | DOwned o -> [ o ]
  | DShared l -> List.sort compare l

(* Invalidate one remote sharer through the directory: a request and
   an ack, each [ho] hops.  Dir_drop_ack injection: the ack is lost on
   the way home, so the directory times out and replays the
   invalidation (a second request/ack pair) and the requester stalls
   for the extra round trip.  The copy itself was already dropped by
   the first request, so replaying can never create a second writer —
   SWMR is preserved by construction and asserted by [swmr_holds]. *)
let inval_sharer t plan ~core ~line ~addr ~far o =
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
  far := max !far ho;
  Cache.invalidate t.caches.(o) addr

let is_deactivated t hint =
  match (t.deact, hint) with
  | Off, _ -> false
  | (Private_only | Private_and_ro), Private_to _ -> true
  | Private_and_ro, Read_only -> true
  | Private_only, Read_only -> false
  | _, Shared_data -> false

let access t ~core ~addr ~write ~hint =
  if core < 0 || core >= t.p.cores then invalid_arg "Machine.access: bad core";
  t.c_accesses <- t.c_accesses + 1;
  let cache = t.caches.(core) in
  let line = Cache.line_of_addr cache addr in
  if is_deactivated t hint then begin
    (* Coherence off: no directory, no invalidations.  Private data is
       homed locally; read-only data replicates freely. *)
    (match hint with
    | Read_only when write ->
        invalid_arg "Machine.access: write to read-only-hinted data"
    | _ -> ());
    match Cache.lookup cache addr with
    | Cache.Modified | Cache.Exclusive ->
        t.c_hits <- t.c_hits + 1;
        charge t core t.p.l1_hit;
        if write then Cache.set_state cache addr Cache.Modified
    | Cache.Shared_state ->
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
        deact_evict t core hint (install_evicted cache addr st)
  end
  else begin
    (* Tracked MESI through the directory. *)
    let fi = (line * 2654435761) lsr 16 land ((1 lsl 15) - 1) in
    if Array.unsafe_get t.tracked_filter fi <> line then begin
      Array.unsafe_set t.tracked_filter fi line;
      Iw_engine.Itbl.set t.tracked_lines line ()
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
    match (Cache.lookup cache addr, write) with
    | (Cache.Modified | Cache.Exclusive), false ->
        t.c_hits <- t.c_hits + 1;
        charge t core t.p.l1_hit
    | Cache.Modified, true ->
        t.c_hits <- t.c_hits + 1;
        charge t core t.p.l1_hit
    | Cache.Exclusive, true ->
        t.c_hits <- t.c_hits + 1;
        charge t core t.p.l1_hit;
        Cache.set_state cache addr Cache.Modified
    | Cache.Shared_state, false ->
        t.c_hits <- t.c_hits + 1;
        charge t core t.p.l1_hit
    | Cache.Shared_state, true ->
        (* Upgrade: invalidate the other sharers via the directory. *)
        t.c_hits <- t.c_hits + 1;
        t.c_dir <- t.c_dir + 1;
        Iw_obs.Counter.incr t.obs.Iw_obs.Obs.counters
          Iw_obs.Counter.Dir_transitions;
        let hm = hops t core (home t line) in
        ctrl_msg t hm;
        charge t core ((2 * hm * t.p.hop_latency) + t.p.dir_lookup);
        (* Single probe: read the sharer set and claim ownership. *)
        let prev =
          Iw_engine.Itbl.mutate t.dir line (fun _ -> t.owned.(core))
        in
        let others = List.filter (fun c -> c <> core) (sharers_of prev) in
        let far = ref 0 in
        List.iter (inval_sharer t plan ~core ~line ~addr ~far) others;
        charge t core (t.p.inval_cost + (2 * !far * t.p.hop_latency));
        Cache.set_state cache addr Cache.Modified
    | Cache.Invalid, _ ->
        t.c_misses <- t.c_misses + 1;
        t.c_dir <- t.c_dir + 1;
        Iw_obs.Counter.incr t.obs.Iw_obs.Obs.counters
          Iw_obs.Counter.Dir_transitions;
        let hm = hops t core (home t line) in
        ctrl_msg t hm;
        charge t core ((2 * hm * t.p.hop_latency) + t.p.dir_lookup);
        let install st =
          tracked_evict t core (install_evicted cache addr st)
        in
        (* Single probe: the next directory state is a pure function
           of the previous one, so read-modify-write in one pass and
           base the protocol side effects on the returned old state. *)
        let prev =
          Iw_engine.Itbl.mutate t.dir line (fun d ->
              if write then t.owned.(core)
              else
                match d with
                | DNone -> t.owned.(core)
                | DOwned o when o <> core -> DShared [ o; core ]
                | DOwned _ -> t.owned.(core)
                | DShared l -> DShared (core :: List.filter (fun c -> c <> core) l))
        in
        (match prev with
        | DNone ->
            (* Memory at the home supplies the line. *)
            charge t core t.p.mem_latency;
            t.c_data <- t.c_data + 1;
            data_msg t (max hm 1);
            install (if write then Cache.Modified else Cache.Exclusive)
        | d ->
            let sharers = List.filter (fun c -> c <> core) (sharers_of d) in
            if write then begin
              (* Invalidate everyone; data comes cache-to-cache from
                 the owner when there is one. *)
              let far = ref 0 in
              List.iter (inval_sharer t plan ~core ~line ~addr ~far) sharers;
              (match (d, sharers) with
              | DOwned o, _ when o <> core ->
                  charge t core
                    (t.p.cache_to_cache + (hops t o core * t.p.hop_latency));
                  t.c_data <- t.c_data + 1;
                  data_msg t (max (hops t o core) 1)
              | _ ->
                  charge t core t.p.mem_latency;
                  t.c_data <- t.c_data + 1;
                  data_msg t (max hm 1));
              charge t core (t.p.inval_cost + (2 * !far * t.p.hop_latency));
              install Cache.Modified
            end
            else begin
              (match d with
              | DNone -> assert false (* handled by the outer match *)
              | DOwned o when o <> core ->
                  let fwd = hops t (home t line) o in
                  let stale =
                    (* Stale directory entry: the named owner silently
                       dropped its copy, so the forward bounces.  A
                       Modified copy is written back as part of the
                       drop (the fault may not lose data); recovery is
                       one layer up in the protocol — the home nacks
                       the forward and memory supplies the line. *)
                    Iw_faults.Plan.enabled plan
                    && Iw_faults.Plan.fire plan t.obs
                         ~kind:Iw_faults.Plan.Dir_stale ~cpu:core
                         ~ts:t.cycles.(core)
                  in
                  if stale then begin
                    if Cache.lookup t.caches.(o) addr = Cache.Modified
                    then begin
                      t.c_wb <- t.c_wb + 1;
                      data_msg t fwd
                    end;
                    Cache.invalidate t.caches.(o) addr;
                    ctrl_msg t fwd;
                    (* nack back to the home *)
                    ctrl_msg t fwd;
                    Iw_obs.Counter.incr t.obs.Iw_obs.Obs.counters
                      Iw_obs.Counter.Dir_stale_refetch;
                    charge t core
                      (t.p.mem_latency
                      + ((2 * fwd) + (2 * hm)) * t.p.hop_latency);
                    t.c_data <- t.c_data + 1;
                    data_msg t (max hm 1)
                  end
                  else begin
                    (* Forward; owner downgrades, modified data written
                       back home. *)
                    ctrl_msg t fwd;
                    charge t core
                      (t.p.cache_to_cache
                      + ((fwd + hops t o core) * t.p.hop_latency));
                    t.c_data <- t.c_data + 1;
                    data_msg t (max (hops t o core) 1);
                    if Cache.lookup t.caches.(o) addr = Cache.Modified
                    then begin
                      t.c_wb <- t.c_wb + 1;
                      data_msg t fwd
                    end;
                    Cache.set_state t.caches.(o) addr Cache.Shared_state
                  end
              | DOwned _ | DShared _ ->
                  charge t core t.p.mem_latency;
                  t.c_data <- t.c_data + 1;
                  data_msg t (max hm 1));
              install Cache.Shared_state
            end)
  end

let core_cycles t core = t.cycles.(core)

let makespan t = Array.fold_left max 0 t.cycles

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

let interconnect_energy t = t.energy

(* Single-writer-multiple-reader: for every line that has ever been
   coherence-tracked, an M or E copy in one cache excludes any copy in
   any other cache. *)
let swmr_holds t =
  let holders = Hashtbl.create 64 in
  Array.iteri
    (fun core cache ->
      Cache.fold cache ~init:() ~f:(fun () line st ->
          if Iw_engine.Itbl.mem t.tracked_lines line then begin
            let cur = try Hashtbl.find holders line with Not_found -> [] in
            Hashtbl.replace holders line ((core, st) :: cur)
          end))
    t.caches;
  Hashtbl.fold
    (fun _line copies ok ->
      ok
      &&
      let exclusive =
        List.exists
          (fun (_, st) -> st = Cache.Modified || st = Cache.Exclusive)
          copies
      in
      (not exclusive) || List.length copies = 1)
    holders true
