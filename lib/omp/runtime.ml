open Iw_engine
open Iw_kernel

type mode = Linux_user | Rtk | Pik | Cck

let mode_name = function
  | Linux_user -> "linux-omp"
  | Rtk -> "rtk"
  | Pik -> "pik"
  | Cck -> "cck"

let personality_of_mode mode plat =
  match mode with
  | Linux_user -> Os.linux plat
  | Rtk | Pik | Cck -> Os.nautilus plat

type schedule = Static | Dynamic of int | Guided of int

type region = {
  r_iters : int;
  r_cycles : int -> int;
  r_sched : schedule;
  mutable r_next : int;
}

type t = {
  k : Sched.t;
  mode : mode;
  nthreads : int;
  mutable gen : int;  (* region generation; bump = release *)
  mutable region : region option;
  mutable arrived : int;  (* workers done with the current region *)
  mutable lost : int;  (* arrivals swallowed by injected barrier faults *)
  mutable team : Sched.thread list;
  tasks : Task.t option;  (* CCK backend *)
  handles : Task.handle array;  (* CCK: one per chunk, reused each region *)
  mutable stopping : bool;
  mutable nchunks : int;
}

(* The PIK process abstraction interposes a thin shim on each runtime
   call (§V-A). *)
let pik_shim = 100

(* Active-wait polling, libomp-style (OMP_WAIT_POLICY=active): tight
   at first, then progressively lazier so idle teams don't flood the
   simulator with events. *)
let poll_cost spins =
  if spins < 16 then 150 else if spins < 64 then 1_500 else 15_000

let sum_cycles f lo hi =
  let acc = ref 0 in
  for i = lo to hi - 1 do
    acc := !acc + f i
  done;
  !acc

(* Run one chunk's iterations, wrapped in an "omp_chunk" span on the
   running CPU's track when tracing is on.  The R_now/R_cpu scheduler
   requests are pure queries (the thread continues immediately, no
   cost is charged), so the traced and untraced runs stay
   cycle-identical — and with tracing off this is just the consume. *)
let consume_chunk tr cycles =
  if tr.Iw_obs.Trace.enabled then begin
    let cpu = Api.cpu_id () in
    let start = Api.now () in
    Coro.consume cycles;
    Iw_obs.Trace.span tr ~name:"omp_chunk" ~cat:"omp" ~cpu ~ts:start
      ~dur:(Api.now () - start)
      ()
  end
  else Coro.consume cycles

let run_share t (r : region) wid =
  let plat = Sched.platform t.k in
  let costs = plat.Iw_hw.Platform.costs in
  let tr = (Sched.obs t.k).Iw_obs.Obs.trace in
  let tron = tr.Iw_obs.Trace.enabled in
  let share_cpu = if tron then Api.cpu_id () else -1 in
  let share_start = if tron then Api.now () else 0 in
  if t.mode = Pik then Api.overhead pik_shim;
  let fetch_cost =
    costs.atomic_rmw + if t.nthreads > 1 then costs.cache_line_remote else 0
  in
  (match r.r_sched with
  | Static ->
      let lo = wid * r.r_iters / t.nthreads in
      let hi = (wid + 1) * r.r_iters / t.nthreads in
      if hi > lo then begin
        t.nchunks <- t.nchunks + 1;
        consume_chunk tr (sum_cycles r.r_cycles lo hi)
      end
  | Dynamic chunk ->
      let rec grab () =
        Api.overhead fetch_cost;
        if r.r_next < r.r_iters then begin
          let lo = r.r_next in
          let hi = min r.r_iters (lo + chunk) in
          r.r_next <- hi;
          t.nchunks <- t.nchunks + 1;
          consume_chunk tr (sum_cycles r.r_cycles lo hi);
          grab ()
        end
      in
      grab ()
  | Guided min_chunk ->
      let rec grab () =
        Api.overhead fetch_cost;
        if r.r_next < r.r_iters then begin
          let remaining = r.r_iters - r.r_next in
          let chunk = max min_chunk (remaining / (2 * t.nthreads)) in
          let lo = r.r_next in
          let hi = min r.r_iters (lo + chunk) in
          r.r_next <- hi;
          t.nchunks <- t.nchunks + 1;
          consume_chunk tr (sum_cycles r.r_cycles lo hi);
          grab ()
        end
      in
      grab ());
  (* The worker's whole share of the region, enclosing its chunk
     spans (and the hw grant spans inside them) on this CPU's track;
     emitted after the chunks, as the profiler's tie-break expects. *)
  if tron then
    Iw_obs.Trace.span tr ~name:"omp_share" ~cat:"omp" ~cpu:share_cpu
      ~ts:share_start
      ~dur:(Api.now () - share_start)
      ()

(* Barrier arrival.  Barrier_drop injection: the arrival increment is
   lost (a dropped cache-line update), so the master would spin
   forever on [arrived < nthreads]; the lost count is kept so the
   master's barrier audit — the recovery, one layer up — can find it. *)
let arrive t =
  let costs = (Sched.platform t.k).Iw_hw.Platform.costs in
  Api.overhead (costs.atomic_rmw + costs.cache_line_remote);
  let plan = Iw_faults.Plan.ambient () in
  if
    Iw_faults.Plan.enabled plan
    && Iw_faults.Plan.fire plan (Sched.obs t.k)
         ~kind:Iw_faults.Plan.Barrier_drop ~cpu:(Api.cpu_id ()) ~ts:(Api.now ())
  then t.lost <- t.lost + 1
  else t.arrived <- t.arrived + 1

(* An idle team member spins on the region generation; the kernel
   serves the polls. *)
let worker_body t wid () =
  let gen = ref 1 in
  let released () = t.stopping || t.gen >= !gen in
  let rec await () =
    Api.spin_until ~poll:poll_cost released;
    if not t.stopping then begin
      (match t.region with Some r -> run_share t r wid | None -> ());
      arrive t;
      incr gen;
      await ()
    end
  in
  await ()

let create k mode ~nthreads =
  if nthreads < 1 then invalid_arg "Runtime.create: nthreads must be >= 1";
  if nthreads > Sched.cpu_count k then
    invalid_arg
      (Printf.sprintf "Runtime.create: nthreads must be <= the CPU count (%d)"
         (Sched.cpu_count k));
  let tasks, handles =
    match mode with
    | Cck ->
        ( Some (Task.create k (consume_chunk (Sched.obs k).trace)),
          Array.init (4 * nthreads) (fun _ -> Task.handle ()) )
    | Linux_user | Rtk | Pik -> (None, [||])
  in
  let t =
    {
      k;
      mode;
      nthreads;
      gen = 0;
      region = None;
      arrived = 0;
      lost = 0;
      team = [];
      tasks;
      handles;
      stopping = false;
      nchunks = 0;
    }
  in
  (match mode with
  | Cck -> ()  (* the task framework's per-CPU daemons are the team *)
  | Linux_user | Rtk | Pik ->
      t.team <-
        List.init (nthreads - 1) (fun i ->
            let wid = i + 1 in
            Sched.spawn k
              ~spec:
                {
                  Sched.sp_name = Printf.sprintf "omp-%d" wid;
                  sp_cpu = Some wid;
                  sp_fp = true;
                  sp_rt = false;
                }
              (worker_body t wid)));
  t

let parallel_for t ?(schedule = Static) ~iters ~iter_cycles () =
  if iters < 0 then invalid_arg "Runtime.parallel_for: iters must be >= 0";
  (match schedule with
  | Static -> ()
  | Dynamic chunk ->
      if chunk < 1 then
        invalid_arg "Runtime.parallel_for: Dynamic chunk must be >= 1"
  | Guided min_chunk ->
      if min_chunk < 1 then
        invalid_arg "Runtime.parallel_for: Guided min_chunk must be >= 1");
  let obs = Sched.obs t.k in
  Iw_obs.Counter.incr obs.Iw_obs.Obs.counters Iw_obs.Counter.Omp_regions;
  let chunks_before = t.nchunks in
  let region_start = Sched.now t.k in
  let costs = (Sched.platform t.k).Iw_hw.Platform.costs in
  (match t.tasks with
  | Some tf ->
      (* CCK: pragmas compiled straight to kernel tasks. *)
      let nchunks = max 1 (min iters (4 * t.nthreads)) in
      let submitted = ref 0 in
      for c = 0 to nchunks - 1 do
        let lo = c * iters / nchunks and hi = (c + 1) * iters / nchunks in
        if hi > lo then begin
          t.nchunks <- t.nchunks + 1;
          Task.submit tf t.handles.(!submitted) ~cpu:(c mod t.nthreads)
            (sum_cycles iter_cycles lo hi);
          incr submitted
        end
      done;
      (* Taskwait, last-submitted first. *)
      for i = !submitted - 1 downto 0 do
        Task.wait t.handles.(i)
      done
  | None ->
      let r =
        {
          r_iters = iters;
          r_cycles = iter_cycles;
          r_sched = schedule;
          r_next = 0;
        }
      in
      t.region <- Some r;
      t.arrived <- 0;
      if t.mode = Pik then Api.overhead pik_shim;
      (* Publishing the region is one shared-line write the spinning
         team observes; not a per-worker syscall chain. *)
      Api.overhead (costs.atomic_rmw + costs.cache_line_remote);
      t.gen <- t.gen + 1;
      run_share t r 0;
      arrive t;
      (* Implicit barrier: the master waits for every team member.
         Recovery for dropped arrivals lives here, one layer above the
         injection: once the polling has gone lazy (the team should
         long since have arrived), the master audits the barrier word
         — rereading every member's progress costs a line transfer per
         thread — and credits any arrival whose increment was lost. *)
      let audit_cost = t.nthreads * costs.cache_line_remote in
      let rec wait spins =
        if t.arrived < t.nthreads then begin
          Api.overhead (poll_cost spins);
          if spins >= 64 && spins mod 64 = 0 && t.lost > 0 then begin
            Api.overhead audit_cost;
            t.arrived <- t.arrived + t.lost;
            t.lost <- 0;
            let obs = Sched.obs t.k in
            Iw_obs.Counter.incr obs.Iw_obs.Obs.counters
              Iw_obs.Counter.Barrier_recover
          end;
          wait (spins + 1)
        end
      in
      wait 0;
      t.region <- None);
  Iw_obs.Counter.add obs.Iw_obs.Obs.counters Iw_obs.Counter.Omp_chunks
    (t.nchunks - chunks_before);
  let tr = obs.Iw_obs.Obs.trace in
  if tr.Iw_obs.Trace.enabled then
    Iw_obs.Trace.span tr ~name:"omp_region" ~cat:"omp" ~cpu:(-1)
      ~ts:region_start
      ~dur:(Sched.now t.k - region_start)
      ()

let shutdown t =
  t.stopping <- true;
  List.iter Api.join t.team;
  match t.tasks with Some tf -> Task.shutdown tf | None -> ()

let regions t =
  Iw_obs.Counter.get (Sched.counters t.k) Iw_obs.Counter.Omp_regions
