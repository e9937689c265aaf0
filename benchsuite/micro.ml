(* Layer microbenchmarks: one hot operation of each layer, timed in
   isolation through its public functions.

   Each case builds a fresh instance untimed, then times one batch of
   operations on it.  A case runs one warm-up batch and then [batches]
   timed ones; it reports the median host nanoseconds per operation
   and, where the layer's allocation is the target of an open
   optimisation, the median minor-heap words per operation. *)

open Iw_engine

(* Deterministic operands, so every run times the same work. *)
let operands n =
  let x = ref 0x2545F491 in
  Array.init n (fun _ ->
      x := ((!x * 1103515245) + 12345) land 0x3FFFFFFF;
      !x)

let vals = operands 65_536
let v i = Array.unsafe_get vals (i land 65_535)

let engine_event n () =
  let sim = Sim.create () in
  let i = ref 0 in
  let rec ev () =
    incr i;
    Sim.schedule_after_unit sim (1 + (v !i land 1023)) ev
  in
  for k = 1 to 4096 do
    Sim.schedule_after_unit sim (1 + (v k land 1023)) ev
  done;
  fun () ->
    Sim.run ~max_events:n sim;
    n

(* Each timer cycles through delays that land on five different wheel
   levels, so arms, cascades and fires are all exercised. *)
let engine_timer n () =
  let sim = Sim.create () in
  let delays = [| 7; 300; 9_000; 400_000; 20_000_000 |] in
  for t = 0 to 63 do
    let tm = Sim.timer sim in
    let k = ref t in
    let rec fire () =
      incr k;
      Sim.arm_after sim tm delays.(!k mod 5) fire
    in
    Sim.arm_after sim tm delays.(t mod 5) fire
  done;
  fun () ->
    Sim.run ~max_events:n sim;
    n

let engine_itbl n () =
  let t = Itbl.create ~dummy:0 () in
  for i = 0 to 65_535 do
    Itbl.set t (v i) i
  done;
  let bump x = x + 1 in
  fun () ->
    for i = 1 to n do
      ignore (Itbl.mutate t (v i) bump)
    done;
    n

let nic_ring n () =
  let r = Iw_hw.Nic.Ring.create 256 in
  fun () ->
    let bursts = n / 16 in
    for i = 1 to bursts do
      for j = 1 to 16 do
        ignore (Iw_hw.Nic.Ring.push r ~a:i ~b:j ~ts:i)
      done;
      for _ = 1 to 16 do
        let a = Iw_hw.Nic.Ring.peek_a r and b = Iw_hw.Nic.Ring.peek_b r in
        ignore (Sys.opaque_identity (a + b));
        Iw_hw.Nic.Ring.pop r
      done
    done;
    bursts * 16

(* Two flat threads on one CPU ping-pong through a pair of
   semaphores: every wait parks one and switches to the other. *)
let kernel_switch rounds () =
  let open Iw_kernel in
  let plat = Iw_hw.Platform.with_cores Iw_hw.Platform.knl 1 in
  let k = Sched.boot ~personality:(Os.nautilus plat) plat in
  let spec = { Sched.default_spec with sp_cpu = Some 0 } in
  let pinger ~first ~post ~wait =
    let fl = Sched.spawn_flat k ~spec () in
    let left = ref rounds and stage = ref 0 in
    Sched.set_flat_step fl (fun () ->
        if !stage = 0 then
          if !left = 0 then Sched.flat_exit k fl
          else begin
            stage := 1;
            if first then Sched.flat_sem_post k fl post
            else Sched.flat_sem_wait k fl wait
          end
        else begin
          stage := 0;
          decr left;
          if first then Sched.flat_sem_wait k fl wait
          else Sched.flat_sem_post k fl post
        end)
  in
  let ping = Sched.semaphore ~init:0 and pong = Sched.semaphore ~init:0 in
  pinger ~first:true ~post:pong ~wait:ping;
  pinger ~first:false ~post:ping ~wait:pong;
  fun () ->
    Sched.run k;
    Iw_obs.Counter.get (Sched.counters k) Iw_obs.Counter.Context_switches

(* A bench-generated 24-core stream in the PBBS surrogates' shape:
   mostly core-private data, some read-only input, a small truly
   shared region.  Replayed on a directory machine and on a
   deactivated one. *)
let coherence_access n () =
  let open Iw_coherence in
  let cores = 24 in
  let private_hint = Array.init cores (fun c -> Machine.Private_to c) in
  let stream =
    Array.init n (fun i ->
        let core = i mod cores and r = v i mod 100 and x = v (i + 7) in
        if r < 80 then
          let off = if r < 68 then x land 0xFFFF else x land 0x1FFFFF in
          ((core + 1) lsl 30 + off, core, x land 7 < 3, private_hint.(core))
        else if r < 92 then
          ((1 lsl 28) + (x land 0x3FFFFF), core, false, Machine.Read_only)
        else ((1 lsl 27) + (x land 0xFFFF), core, x land 3 = 0, Machine.Shared_data))
  in
  let params = Machine.default_params ~cores ~cores_per_socket:12 in
  let machines =
    List.map (Machine.create ~params) Machine.[ Off; Private_and_ro ]
  in
  fun () ->
    List.iter
      (fun m ->
        Array.iter
          (fun (addr, core, write, hint) -> Machine.access m ~core ~addr ~write ~hint)
          stream)
      machines;
    2 * n

let hist_record n () =
  let h = Iw_service.Hist.create () in
  fun () ->
    for i = 1 to n do
      Iw_service.Hist.record h (v i land 0xFFFFF)
    done;
    n

let squeue n () =
  let open Iw_service in
  let q = Squeue.create ~order:Squeue.Fifo ~cap:64 in
  fun () ->
    let bursts = n / 32 in
    for _ = 1 to bursts do
      for j = 1 to 32 do
        ignore (Squeue.try_push q ~hi:false j)
      done;
      for _ = 1 to 32 do
        ignore (Squeue.pop_idx q)
      done
    done;
    bursts * 32

let dispatch_po2 n () =
  let open Iw_service in
  let qs = Array.init 8 (fun i ->
      let q = Squeue.create ~order:Squeue.Fifo ~cap:64 in
      for j = 1 to 3 * i do
        ignore (Squeue.try_push q ~hi:false j)
      done;
      q)
  in
  let d = Dispatch.create Dispatch.Po2 ~rng:(Rng.create ~seed:7) in
  fun () ->
    for _ = 1 to n do
      ignore (Dispatch.pick_queues d qs)
    done;
    n

let span_on tr n () =
  let tr = tr () in
  fun () ->
    for i = 1 to n do
      Iw_obs.Trace.span tr ~name:"bench" ~cpu:0 ~ts:i ~dur:1 ()
    done;
    n

let counter_incr n () =
  let c = Iw_obs.Counter.create () in
  fun () ->
    for _ = 1 to n do
      Iw_obs.Counter.incr c Iw_obs.Counter.Context_switches
    done;
    n

(* Median ns/op and words/op over [batches] timed batches. *)
let measure ~batches case =
  let batch () =
    let run = case () in
    let w0 = Gc.minor_words () in
    let t0 = Unix.gettimeofday () in
    let ops = run () in
    let t1 = Unix.gettimeofday () in
    let ops = float_of_int (max 1 ops) in
    ((t1 -. t0) *. 1e9 /. ops, (Gc.minor_words () -. w0) /. ops)
  in
  ignore (batch ());
  let samples = List.init batches (fun _ -> batch ()) in
  ( Bench_stats.median (List.map fst samples),
    Bench_stats.median (List.map snd samples) )

(* Every case with its batch size (ops), sized for 10-30 ms per batch
   on a 2-core x86 host, and the metrics it reports. *)
let cases =
  [
    ("engine.event", engine_event 200_000, true);
    ("engine.timer", engine_timer 300_000, false);
    ("engine.itbl", engine_itbl 500_000, false);
    ("hw.nic_ring", nic_ring 2_000_000, true);
    ("kernel.switch", kernel_switch 10_000, true);
    ("coherence.access", coherence_access 32_768, true);
    ("service.hist_record", hist_record 1_000_000, false);
    ("service.squeue", squeue 1_000_000, false);
    ("service.dispatch_po2", dispatch_po2 500_000, false);
    ("obs.span_null", span_on Iw_obs.Trace.null 4_000_000, false);
    ( "obs.span_ring",
      span_on (fun () -> Iw_obs.Trace.ring ~capacity:65_536 ()) 1_000_000,
      false );
    ("obs.counter_incr", counter_incr 10_000_000, false);
  ]

let run ~quick =
  let batches = if quick then 1 else 5 in
  List.concat_map
    (fun (name, case, words) ->
      let ns, w = measure ~batches case in
      (name ^ "_ns", ns) :: (if words then [ (name ^ "_words", w) ] else []))
    cases
