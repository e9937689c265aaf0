open Iw_engine

type backend = Kvm | Hyper_v

type profile = Full_linux_boot | Minimal_64 | Bespoke_16

type config = {
  backend : backend;
  profile : profile;
  snapshot : bool;
  pooled : bool;
  mem_mb : int;
}

let default =
  { backend = Kvm; profile = Minimal_64; snapshot = false; pooled = false; mem_mb = 2 }

type stage = { stage_name : string; stage_us : float; elided : bool }

(* Backend ioctl/hypercall cost factor: Hyper-V's API path is a bit
   heavier than KVM's in the virtines measurements. *)
let backend_factor = function Kvm -> 1.0 | Hyper_v -> 1.35

let boot_us = function
  | Full_linux_boot -> 120_000.0  (* kernel + init, heavily trimmed *)
  | Minimal_64 -> 380.0  (* long-mode setup, paging, FP init, shim *)
  | Bespoke_16 -> 28.0  (* stay in real mode, jump to the function *)

let stages config =
  let f = backend_factor config.backend in
  let pooled = config.pooled in
  let snap = config.snapshot in
  [
    {
      stage_name = "context-create";
      stage_us = 50.0 *. f;
      elided = pooled;
    };
    {
      stage_name = "guest-memory-map";
      stage_us = 8.0 +. (4.0 *. float_of_int config.mem_mb *. f);
      elided = pooled;
    };
    { stage_name = "vcpu-setup"; stage_us = 22.0 *. f; elided = pooled };
    {
      stage_name = "boot-path";
      stage_us = boot_us config.profile;
      elided = snap;
    };
    {
      stage_name = "snapshot-restore";
      stage_us = 55.0 +. (14.0 *. float_of_int config.mem_mb);
      elided = not snap;
    };
    {
      stage_name = "runtime-init";
      stage_us =
        (match config.profile with
        | Full_linux_boot -> 900.0
        | Minimal_64 -> 35.0
        | Bespoke_16 -> 4.0);
      elided = snap;
    };
    { stage_name = "pool-dispatch"; stage_us = 9.0; elided = not pooled };
  ]

let spawn_latency_us config =
  List.fold_left
    (fun acc s -> if s.elided then acc else acc +. s.stage_us)
    0.0 (stages config)

(* The call path is allocation-conscious: a serving plane makes one
   [call_at] per request, so per-config latencies are computed once at
   [create] (walking [stages] builds a record list every time) and the
   in-flight refill times live in a float ring rather than a list. *)
type t = {
  config : config;
  cold_cfg : config;  (* config with pooling off, for cold launches *)
  warm_base_us : float;  (* unjittered spawn latency, pooled path *)
  cold_base_us : float;  (* unjittered spawn latency, cold path *)
  obs : Iw_obs.Obs.t;
  rng : Rng.t;
  pool_size : int;
  mutable pool : int;  (* warm contexts available *)
  (* In-flight refill ready times: ascending ring, [rf_n] entries
     starting at [rf_head]. *)
  mutable rf_buf : float array;
  mutable rf_head : int;
  mutable rf_n : int;
  last_now : float array;  (* [| the previous [call_at]'s now_us |] *)
  mutable vclock : int;  (* span clock in virtual cycles; see below *)
}

let create ?obs ?(seed = 7) ?(pool_size = 16) config =
  let obs = match obs with Some o -> o | None -> Iw_obs.Obs.inherit_trace () in
  let cold_cfg = { config with pooled = false } in
  {
    config;
    cold_cfg;
    warm_base_us = spawn_latency_us config;
    cold_base_us = spawn_latency_us cold_cfg;
    obs;
    rng = Rng.create ~seed;
    pool_size;
    pool = (if config.pooled then pool_size else 0);
    rf_buf = Array.make 8 0.0;
    rf_head = 0;
    rf_n = 0;
    last_now = [| Float.neg_infinity |];
    vclock = 0;
  }

let marshal_us = 2.0
let teardown_us = 11.0

(* Wasp accounts in float microseconds, not simulator cycles; for the
   trace we render spans on a private per-instance clock at a nominal
   1 GHz (1 cycle = 1 ns), using the *unjittered* stage costs so
   tracing never consumes an extra RNG draw — experiment tables stay
   byte-identical with tracing on. *)
let span_cycles_of_us us = max 1 (int_of_float (us *. 1000.0))

(* One "virtine_spawn" parent span containing one child span per
   non-elided boot stage, in stage order.  Children are emitted
   before the parent (spans are emitted at completion, and the
   profiler breaks identical-interval ties by emit order). *)
let trace_spawn t cfg =
  let tr = t.obs.Iw_obs.Obs.trace in
  if tr.Iw_obs.Trace.enabled then begin
    let start = t.vclock in
    let off = ref start in
    List.iter
      (fun s ->
        if not s.elided then begin
          let d = span_cycles_of_us s.stage_us in
          Iw_obs.Trace.span tr ~name:s.stage_name ~cat:"virtine" ~cpu:(-1)
            ~ts:!off ~dur:d ();
          off := !off + d
        end)
      (stages cfg);
    Iw_obs.Trace.span tr ~name:"virtine_spawn" ~cat:"virtine" ~cpu:(-1)
      ~ts:start
      ~dur:(max 1 (!off - start))
      ();
    t.vclock <- max (!off) (start + 1)
  end

(* Detecting a poisoned warm context (failed health check before
   dispatch) costs a fixed scan; the entry is evicted and the call
   falls through to whatever the pool has left. *)
let poison_detect_us = 6.0

(* A launch that dies partway through boot burns this fraction of its
   latency before the failure is observed and the launch is retried. *)
let failed_launch_fraction = 0.5
let relaunch_max = 3

let fault_instant t name =
  let tr = t.obs.Iw_obs.Obs.trace in
  if tr.Iw_obs.Trace.enabled then
    Iw_obs.Trace.instant tr ~name ~cat:"virtine" ~cpu:(-1) ~ts:t.vclock ()

(* Background re-provisioning of a consumed warm context.  The pool
   manager boots a replacement off the request's critical path; until
   it finishes (one cold, unjittered spawn) the pool is one entry
   short.  [call] has no caller clock and keeps the historical
   instant-refill behavior; [call_at] threads the caller's clock
   through, so a burst can genuinely drain the pool and pay cold
   boots — which is what makes pool sizing a real knob. *)
let refill_us t = t.cold_base_us

(* Ready refill times form a prefix of the ascending ring; popping
   them one by one (pool capped at pool_size) is what the old
   List.partition computed, without the per-call closure and lists. *)
let rec reclaim t now_us =
  if t.rf_n > 0 && t.rf_buf.(t.rf_head) <= now_us then begin
    t.rf_head <- (t.rf_head + 1) mod Array.length t.rf_buf;
    t.rf_n <- t.rf_n - 1;
    if t.pool < t.pool_size then t.pool <- t.pool + 1;
    reclaim t now_us
  end

let rf_grow t =
  let cap = Array.length t.rf_buf in
  let nb = Array.make (2 * cap) 0.0 in
  for i = 0 to t.rf_n - 1 do
    nb.(i) <- t.rf_buf.((t.rf_head + i) mod cap)
  done;
  t.rf_buf <- nb;
  t.rf_head <- 0

(* [now_us = nan] means the caller has no clock ([call]): consumed
   entries refill instantly, the historical behavior.  The sentinel
   (instead of a [float option]) keeps the per-request path from
   boxing a [Some] per call.  Otherwise the ready time goes at the
   tail: [call_at] refuses a clock that goes back and the refill
   latency is a constant, so appending keeps the ring ascending. *)
let schedule_refill t now_us =
  if Float.is_nan now_us then begin
    if t.pool < t.pool_size then t.pool <- t.pool + 1
  end
  else begin
    if t.rf_n = Array.length t.rf_buf then rf_grow t;
    t.rf_buf.((t.rf_head + t.rf_n) mod Array.length t.rf_buf) <-
      now_us +. refill_us t;
    t.rf_n <- t.rf_n + 1
  end

(* One launch attempt, top-level (passing [now] explicitly) so it
   allocates no closure: the precomputed base latency, jittered up by
   at most 8 % with one RNG draw. *)
let launch_once t now =
  if t.config.pooled && t.pool > 0 then begin
    t.pool <- t.pool - 1;
    Iw_obs.Counter.incr t.obs.Iw_obs.Obs.counters
      Iw_obs.Counter.Virtine_pool_hits;
    (* Refill happens off the critical path. *)
    schedule_refill t now;
    trace_spawn t t.config;
    t.warm_base_us *. (1.0 +. Rng.float t.rng 0.08)
  end
  else begin
    trace_spawn t t.cold_cfg;
    t.cold_base_us *. (1.0 +. Rng.float t.rng 0.08)
  end

(* Launch retry: a failed boot is detected, its partial cost paid,
   and the launch repeated — the caller still gets a virtine, just
   later. *)
let rec launch t plan now attempts =
  let us = launch_once t now in
  if
    attempts < relaunch_max
    && Iw_faults.Plan.enabled plan
    && Iw_faults.Plan.fire plan t.obs ~kind:Iw_faults.Plan.Virtine_fail
         ~cpu:(-1) ~ts:t.vclock
  then begin
    Iw_obs.Counter.incr t.obs.Iw_obs.Obs.counters
      Iw_obs.Counter.Virtine_relaunch;
    fault_instant t "virtine_relaunch";
    (failed_launch_fraction *. us) +. launch t plan now (attempts + 1)
  end
  else us

let call_clocked t ~now ~work_us =
  if work_us < 0.0 then invalid_arg "Wasp.call: negative work";
  if not (Float.is_nan now) then reclaim t now;
  Iw_obs.Counter.incr t.obs.Iw_obs.Obs.counters Iw_obs.Counter.Virtine_spawns;
  let plan = Iw_faults.Plan.ambient () in
  (* Pool poisoning: a warm context fails its pre-dispatch health
     check.  Evict it rather than dispatch into a corrupt guest; the
     caller pays the detection scan and takes the next entry (or a
     cold boot if that was the last one). *)
  let evict_us =
    if
      t.config.pooled && t.pool > 0
      && Iw_faults.Plan.enabled plan
      && Iw_faults.Plan.fire plan t.obs ~kind:Iw_faults.Plan.Pool_poison
           ~cpu:(-1) ~ts:t.vclock
    then begin
      t.pool <- t.pool - 1;
      Iw_obs.Counter.incr t.obs.Iw_obs.Obs.counters Iw_obs.Counter.Pool_evict;
      fault_instant t "pool_evict";
      (* With a clock, the evicted entry is re-provisioned in the
         background like any consumed one; without one, the pool
         shrinks (the historical behavior). *)
      if not (Float.is_nan now) then schedule_refill t now;
      poison_detect_us
    end
    else 0.0
  in
  evict_us +. launch t plan now 0 +. marshal_us +. work_us +. teardown_us

let call t ~work_us = call_clocked t ~now:Float.nan ~work_us
let call_at t ~now_us ~work_us =
  if not (now_us >= t.last_now.(0)) then
    invalid_arg "Wasp.call_at: now_us must not be earlier than the last call's";
  t.last_now.(0) <- now_us;
  call_clocked t ~now:now_us ~work_us

let count t id = Iw_obs.Counter.get t.obs.Iw_obs.Obs.counters id
let spawned t = count t Iw_obs.Counter.Virtine_spawns
let pool_hits t = count t Iw_obs.Counter.Virtine_pool_hits

let call_program t ~ghz (p : Iw_ir.Programs.program) =
  if ghz <= 0.0 then invalid_arg "Wasp.call_program: ghz <= 0";
  (* Each virtine gets a fresh module instance: full isolation, no
     shared state with the host or other virtines. *)
  let m = p.build () in
  let r = Iw_ir.Interp.run m p.entry p.args in
  let work_us = float_of_int r.cycles /. (ghz *. 1e3) in
  let arg_marshal = 0.5 *. float_of_int (List.length p.args) in
  (r.ret, call t ~work_us +. arg_marshal)

module Faas = struct
  type result = {
    config_name : string;
    mean_us : float;
    p50_us : float;
    p99_us : float;
    spawn_only_us : float;
  }

  let run ?(seed = 7) ~name config ~requests ~work_us =
    if requests < 1 then invalid_arg "Wasp.Faas.run: requests must be >= 1";
    let t = create ~seed config in
    let samples = Stats.create () in
    for _ = 1 to requests do
      Stats.add samples (call t ~work_us)
    done;
    {
      config_name = name;
      mean_us = Stats.mean samples;
      p50_us = Stats.percentile samples 50.0;
      p99_us = Stats.percentile samples 99.0;
      spawn_only_us =
        spawn_latency_us { config with pooled = false };
    }

  type load_result = {
    lname : string;
    served : int;
    mean_wait_us : float;
    p99_total_us : float;
    utilization : float;
  }

  let run_load ~name config ~rate_per_s ~duration_s ~concurrency ~work_us =
    let reject what = invalid_arg ("Wasp.Faas.run_load: " ^ what) in
    if not (rate_per_s > 0.0) then reject "rate_per_s must be > 0";
    if not (duration_s > 0.0) then reject "duration_s must be > 0";
    if concurrency < 1 then reject "concurrency must be >= 1";
    let seed = 7 in
    let t = create ~seed config in
    let rng = Iw_engine.Rng.create ~seed:(seed + 101) in
    (* Poisson arrivals over the duration. *)
    let arrivals =
      let rec gen acc now =
        let now =
          now +. Iw_engine.Rng.exponential rng ~mean:(1e6 /. rate_per_s)
        in
        if now > duration_s *. 1e6 then List.rev acc else gen (now :: acc) now
      in
      gen [] 0.0
    in
    (* [concurrency] servers; each request takes the next free one. *)
    let free_at = Array.make concurrency 0.0 in
    let waits = Iw_engine.Stats.create () in
    let totals = Iw_engine.Stats.create () in
    let busy_us = ref 0.0 in
    List.iter
      (fun arrive ->
        (* Pick the earliest-free server. *)
        let best = ref 0 in
        Array.iteri (fun i f -> if f < free_at.(!best) then best := i) free_at;
        let start = Float.max arrive free_at.(!best) in
        let service = call t ~work_us in
        busy_us := !busy_us +. service;
        free_at.(!best) <- start +. service;
        Iw_engine.Stats.add waits (start -. arrive);
        Iw_engine.Stats.add totals (start -. arrive +. service))
      arrivals;
    {
      lname = name;
      served = List.length arrivals;
      mean_wait_us = Iw_engine.Stats.mean waits;
      p99_total_us =
        (if Iw_engine.Stats.count totals = 0 then 0.0
         else Iw_engine.Stats.percentile totals 99.0);
      utilization =
        !busy_us /. (duration_s *. 1e6 *. float_of_int concurrency);
    }

  let table () =
    let work = 150.0 in
    let requests = 500 in
    [
      run ~name:"full-linux-boot"
        { default with profile = Full_linux_boot; mem_mb = 128 }
        ~requests ~work_us:work;
      run ~name:"minimal-64" default ~requests ~work_us:work;
      run ~name:"minimal-64+snapshot"
        { default with snapshot = true }
        ~requests ~work_us:work;
      run ~name:"bespoke-16"
        { default with profile = Bespoke_16 }
        ~requests ~work_us:work;
      run ~name:"bespoke-16+pool"
        { default with profile = Bespoke_16; pooled = true }
        ~requests ~work_us:work;
    ]
end
