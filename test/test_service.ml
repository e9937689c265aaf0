(* Tests for the service plane: histogram algebra, queue/dispatch
   semantics, workload generators, and end-to-end determinism of the
   S experiments. *)

module Hist = Iw_service.Hist
module Workload = Iw_service.Workload
module Squeue = Iw_service.Squeue
module Dispatch = Iw_service.Dispatch
module Plane = Iw_service.Plane
module Arena = Iw_service.Request_arena
module Rng = Iw_engine.Rng

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Histogram *)

let hist_of values =
  let h = Hist.create () in
  List.iter (Hist.record h) values;
  h

let samples = QCheck.(list_of_size Gen.(int_range 0 200) (int_bound 5_000_000))

(* Shard arrays as the Plane and Fleet readouts pass them to
   [merge_all]: empty, one shard, and several. *)
let shards = QCheck.(list_of_size Gen.(int_range 0 5) samples)
let merged xss = Hist.merge_all (Array.of_list (List.map hist_of xss))

let prop_merge_commutative =
  QCheck.Test.make ~name:"hist merge is commutative" ~count:100
    QCheck.(pair shards (int_bound 5))
    (fun (xss, k) ->
      let n = List.length xss in
      let k = if n = 0 then 0 else k mod n in
      let rotated =
        List.filteri (fun i _ -> i >= k) xss
        @ List.filteri (fun i _ -> i < k) xss
      in
      Hist.equal (merged xss) (merged (List.rev xss))
      && Hist.equal (merged xss) (merged rotated))

let prop_merge_associative =
  QCheck.Test.make ~name:"hist merge is associative" ~count:100
    QCheck.(pair shards (int_bound 5))
    (fun (xss, k) ->
      let left = List.filteri (fun i _ -> i < k) xss
      and right = List.filteri (fun i _ -> i >= k) xss in
      Hist.equal (merged xss)
        (Hist.merge_all [| merged left; merged right |]))

let prop_merge_is_concat =
  QCheck.Test.make ~name:"merge equals recording the concatenation" ~count:100
    shards
    (fun xss -> Hist.equal (merged xss) (hist_of (List.concat xss)))

(* The exactness contract: percentile p returns the quantized value of
   the nearest-rank sample from the sorted reference. *)
let prop_percentile_exact =
  QCheck.Test.make ~name:"percentile = quantize(sorted nearest-rank)" ~count:200
    QCheck.(
      pair
        (list_of_size Gen.(int_range 1 300) (int_bound 5_000_000))
        (float_range 0.001 100.0))
    (fun (xs, p) ->
      let h = hist_of xs in
      let sorted = List.sort compare xs in
      let n = List.length xs in
      let rank =
        min n (max 1 (int_of_float (ceil (p /. 100.0 *. float_of_int n))))
      in
      Hist.percentile h p = Hist.quantize (List.nth sorted (rank - 1)))

(* Windowed readout: after an advance, the window's percentiles must
   equal those of a fresh histogram holding only the post-snapshot
   samples — the telemetry sampler's p50/p99 lanes are exactly the
   per-window distribution, not an average contaminated by history. *)
let prop_window_percentile_exact =
  QCheck.Test.make ~name:"windowed percentile = fresh hist of the window"
    ~count:200
    QCheck.(
      triple samples samples (float_range 0.001 100.0))
    (fun (pre, post, p) ->
      let h = hist_of pre in
      let w = Hist.window h in
      Hist.win_advance w;
      List.iter (Hist.record h) post;
      Hist.win_count w = List.length post
      && Hist.win_percentile w p = Hist.percentile (hist_of post) p)

let test_hist_small_values_exact () =
  (* Everything below 64 is its own bucket: percentiles are exact, not
     just quantized-exact. *)
  let h = hist_of [ 5; 1; 63; 20; 20; 7 ] in
  check_int "p50 exact" 7 (Hist.percentile h 50.0);
  check_int "p100 exact" 63 (Hist.percentile h 100.0);
  check_int "min" 1 (Hist.min_value h);
  check_int "max" 63 (Hist.max_value h);
  Alcotest.(check (float 1e-9)) "mean is raw" (116.0 /. 6.0) (Hist.mean h)

let test_hist_quantize_bounds () =
  (* Quantization rounds down with bounded relative error. *)
  List.iter
    (fun v ->
      let q = Hist.quantize v in
      check_bool "q <= v" true (q <= v);
      check_bool "error bounded" true
        (float_of_int (v - q) <= 0.04 *. float_of_int (max v 1)))
    [ 0; 1; 63; 64; 65; 127; 128; 1000; 65_535; 1_000_000; 123_456_789 ]

let test_hist_empty () =
  let h = Hist.create () in
  check_int "empty percentile" 0 (Hist.percentile h 99.0);
  check_int "empty count" 0 (Hist.count h)

(* ------------------------------------------------------------------ *)
(* Squeue *)

let test_squeue_fifo_order () =
  let q = Squeue.create ~order:Squeue.Fifo ~cap:8 in
  List.iter (fun i -> ignore (Squeue.try_push q ~hi:(i = 2) i)) [ 1; 2; 3 ];
  (* Fifo ignores the hi flag. *)
  check_int "pop 1" 1 (Squeue.pop_idx q);
  check_int "pop 2" 2 (Squeue.pop_idx q);
  check_int "pop 3" 3 (Squeue.pop_idx q);
  check_int "drained" (-1) (Squeue.pop_idx q)

let test_squeue_priority_order () =
  let q = Squeue.create ~order:Squeue.Priority ~cap:8 in
  ignore (Squeue.try_push q ~hi:false 1);
  ignore (Squeue.try_push q ~hi:true 2);
  ignore (Squeue.try_push q ~hi:false 3);
  ignore (Squeue.try_push q ~hi:true 4);
  (* High lane first (FIFO within), then the low lane. *)
  check_int "hi 2" 2 (Squeue.pop_idx q);
  check_int "hi 4" 4 (Squeue.pop_idx q);
  check_int "lo 1" 1 (Squeue.pop_idx q);
  check_int "lo 3" 3 (Squeue.pop_idx q)

let test_squeue_drop_tail () =
  let q = Squeue.create ~order:Squeue.Fifo ~cap:2 in
  check_bool "push 1" true (Squeue.try_push q ~hi:false 1);
  check_bool "push 2" true (Squeue.try_push q ~hi:false 2);
  check_bool "push 3 refused" false (Squeue.try_push q ~hi:false 3);
  check_int "len stays at cap" 2 (Squeue.length q)

(* ------------------------------------------------------------------ *)
(* Request arena *)

(* Interpret a script of small ints as alloc/free ops against both the
   arena and a shadow model (handle -> recorded fields).  The model is
   the source of truth for what "live" means; the arena must agree
   after every op, and a slot the model still holds must never be
   handed out again or change under its holder. *)
let run_arena_script ?(check_every = 1) ops =
  let a = Arena.create ~cap:2 in
  let model : (int, int * bool * int) Hashtbl.t = Hashtbl.create 64 in
  let live_handles = ref [] in
  let step opno v =
    if v mod 3 < 2 || !live_handles = [] then begin
      let arrival = v * 7 and hi = v mod 2 = 0 and reply = (v mod 5) - 1 in
      let h = Arena.alloc a ~demand:(-1) ~intended:(-1) ~arrival ~hi ~reply in
      if Hashtbl.mem model h then
        QCheck.Test.fail_reportf
          "op %d: alloc returned handle %d still live in the model" opno h;
      Hashtbl.replace model h (arrival, hi, reply);
      live_handles := h :: !live_handles
    end
    else begin
      let n = List.length !live_handles in
      let victim = List.nth !live_handles (v mod n) in
      Arena.free a victim;
      Hashtbl.remove model victim;
      live_handles := List.filter (fun h -> h <> victim) !live_handles;
      if Arena.is_live a victim then
        QCheck.Test.fail_reportf "op %d: handle %d live after free" opno victim
    end;
    if opno mod check_every = 0 then begin
      if Arena.live a <> Hashtbl.length model then
        QCheck.Test.fail_reportf "op %d: live %d <> model %d" opno
          (Arena.live a) (Hashtbl.length model);
      if Arena.live a + Arena.free_count a <> Arena.capacity a then
        QCheck.Test.fail_reportf "op %d: live + free <> capacity" opno;
      Hashtbl.iter
        (fun h (arrival, hi, reply) ->
          if not (Arena.is_live a h) then
            QCheck.Test.fail_reportf "op %d: model handle %d not live" opno h;
          if
            Arena.arrival a h <> arrival
            || Arena.is_hi a h <> hi
            || Arena.reply a h <> reply
          then
            QCheck.Test.fail_reportf
              "op %d: handle %d fields changed under a live holder" opno h)
        model
    end
  in
  List.iteri step ops;
  a

let prop_arena_model =
  QCheck.Test.make ~name:"arena agrees with a shadow model" ~count:100
    QCheck.(list_of_size Gen.(int_range 1 200) (int_bound 999))
    (fun ops ->
      ignore (run_arena_script ops);
      true)

let prop_arena_free_list_conserved =
  QCheck.Test.make ~name:"free list + live = capacity" ~count:50
    QCheck.(list_of_size Gen.(int_range 1 150) (int_bound 999))
    (fun ops ->
      let a = run_arena_script ~check_every:max_int ops in
      Arena.free_list_length a = Arena.free_count a
      && Arena.live a + Arena.free_count a = Arena.capacity a)

let test_arena_churn_100k () =
  (* 100k random ops: conservation holds throughout, the arena only
     grows to the high-water mark, and steady-state churn recycles
     without growing. *)
  let a = Arena.create ~cap:4 in
  let rng = Rng.create ~seed:11 in
  let live = ref [] in
  let nlive = ref 0 in
  for op = 1 to 100_000 do
    if (!nlive < 64 && Rng.int rng 3 < 2) || !nlive = 0 then begin
      let h =
        Arena.alloc a ~demand:(-1) ~intended:(-1) ~arrival:op
          ~hi:(op mod 2 = 0) ~reply:(-1)
      in
      live := h :: !live;
      incr nlive
    end
    else begin
      let k = Rng.int rng !nlive in
      let victim = List.nth !live k in
      Arena.free a victim;
      live := List.filter (fun h -> h <> victim) !live;
      decr nlive
    end;
    if op mod 10_000 = 0 then begin
      check_int "live tracked" !nlive (Arena.live a);
      check_int "conserved"
        (Arena.capacity a)
        (Arena.live a + Arena.free_count a)
    end
  done;
  check_int "free list walk agrees" (Arena.free_count a)
    (Arena.free_list_length a);
  (* Population is capped at 64, so doubling from 4 stops at 128. *)
  check_bool "capacity bounded by high-water mark" true (Arena.capacity a <= 128);
  check_bool "slots recycled, not grown" true (Arena.allocs a > Arena.capacity a)

let test_arena_free_dead_raises () =
  let a = Arena.create ~cap:2 in
  let h =
    Arena.alloc a ~demand:(-1) ~intended:(-1) ~arrival:1 ~hi:false ~reply:(-1)
  in
  Arena.free a h;
  check_bool "double free rejected" true
    (match Arena.free a h with
    | () -> false
    | exception Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Dispatch *)

let test_dispatch_rr_cycles () =
  let d = Dispatch.create Dispatch.Round_robin ~rng:(Rng.create ~seed:1) in
  let picks = List.init 6 (fun _ -> Dispatch.pick d ~n:3 ~len:(fun _ -> 0)) in
  Alcotest.(check (list int)) "cyclic" [ 0; 1; 2; 0; 1; 2 ] picks

let test_dispatch_jsq_shortest () =
  let d = Dispatch.create Dispatch.Jsq ~rng:(Rng.create ~seed:1) in
  let lens = [| 5; 2; 9; 2 |] in
  check_int "shortest, lowest index on tie" 1
    (Dispatch.pick d ~n:4 ~len:(fun i -> lens.(i)))

let test_dispatch_po2_prefers_shorter () =
  (* po2 never picks a queue longer than both its samples. *)
  let d = Dispatch.create Dispatch.Po2 ~rng:(Rng.create ~seed:7) in
  let lens = [| 0; 100; 100; 100 |] in
  let picks = List.init 200 (fun _ -> Dispatch.pick d ~n:4 ~len:(fun i -> lens.(i))) in
  (* Whenever queue 0 is sampled it wins; it must win sometimes. *)
  check_bool "queue 0 chosen sometimes" true (List.mem 0 picks)

let test_dispatch_deterministic () =
  let run () =
    let d = Dispatch.create Dispatch.Random ~rng:(Rng.create ~seed:9) in
    List.init 50 (fun _ -> Dispatch.pick d ~n:8 ~len:(fun _ -> 0))
  in
  Alcotest.(check (list int)) "same seed, same picks" (run ()) (run ())

(* ------------------------------------------------------------------ *)
(* Workload generators *)

(* Arrival times in cycles of a 1 GHz clock, i.e. in nanoseconds. *)
let drain spec seed =
  let g = Workload.gen spec ~rng:(Rng.create ~seed) ~ghz:1.0 in
  let rec go acc =
    match Workload.next_cycles g with -1 -> List.rev acc | t -> go (t :: acc)
  in
  go []

let test_workload_poisson_deterministic () =
  let spec = Workload.Poisson { rps = 50_000.0; duration_us = 10_000.0 } in
  let a = drain spec 3 and b = drain spec 3 in
  check_bool "nonempty" true (a <> []);
  Alcotest.(check (list int)) "byte-identical arrivals" a b;
  check_bool "strictly increasing" true
    (fst
       (List.fold_left (fun (ok, prev) t -> (ok && t > prev, t)) (true, -1) a));
  check_bool "within duration" true (List.for_all (fun t -> t <= 10_000_000) a)

let test_workload_poisson_rate () =
  let spec = Workload.Poisson { rps = 50_000.0; duration_us = 100_000.0 } in
  let n = List.length (drain spec 3) in
  (* 5000 expected; a generous 4-sigma-ish band. *)
  check_bool "rate in band" true (n > 4_500 && n < 5_500)

let test_workload_bursty_modulates () =
  let spec =
    Workload.Bursty
      {
        rps_on = 100_000.0;
        rps_off = 0.0;
        mean_on_us = 2_000.0;
        mean_off_us = 2_000.0;
        duration_us = 100_000.0;
      }
  in
  let arr = drain spec 5 in
  check_bool "nonempty" true (arr <> []);
  (* A zero-rate off phase must leave silent gaps far longer than any
     on-phase inter-arrival gap. *)
  let gaps =
    List.rev
      (fst
         (List.fold_left (fun (gs, prev) t -> ((t - prev) :: gs, t)) ([], 0) arr))
  in
  check_bool "has a silent gap" true
    (List.exists (fun g -> g > 1_000_000) gaps);
  check_bool "has burst arrivals" true (List.exists (fun g -> g < 100_000) gaps)

let test_workload_offered_rps () =
  Alcotest.(check (float 1e-6))
    "mmpp time-weighted rate" 55_000.0
    (Workload.offered_rps
       (Workload.Bursty
          {
            rps_on = 100_000.0;
            rps_off = 10_000.0;
            mean_on_us = 1_000.0;
            mean_off_us = 1_000.0;
            duration_us = 1.0;
          }))

(* Heavy-tailed demand draws: a pure stateless hash of (seed, id), so
   the same pair always costs the same and stays inside the spec's
   support — the property retries and hedges rely on. *)
let prop_demand_deterministic_bounded =
  QCheck.Test.make ~name:"demand draw is pure and inside its support"
    ~count:500
    QCheck.(pair small_nat (int_bound 1_000_000))
    (fun (seed, id) ->
      let pareto =
        Workload.Dpareto { alpha = 1.5; xmin_us = 10.0; xmax_us = 500.0 }
      in
      let lognorm = Workload.Dlognorm { median_us = 50.0; sigma = 1.2 } in
      let p = Workload.demand_us pareto ~seed ~id in
      let l = Workload.demand_us lognorm ~seed ~id in
      p = Workload.demand_us pareto ~seed ~id
      && l = Workload.demand_us lognorm ~seed ~id
      && p >= 10.0 && p <= 500.0 && l > 0.0
      && Workload.demand_us Workload.Dfixed ~seed ~id = -1.0)

let prop_demand_streams_independent =
  QCheck.Test.make ~name:"demand draws decorrelate across ids and seeds"
    ~count:100 QCheck.small_nat (fun seed ->
      let pareto =
        Workload.Dpareto { alpha = 1.5; xmin_us = 10.0; xmax_us = 500.0 }
      in
      let draws s = List.init 64 (fun id -> Workload.demand_us pareto ~seed:s ~id) in
      (* astronomically unlikely to collide unless the hash ignores
         the seed *)
      draws seed <> draws (seed + 1))

let test_workload_demand_validation () =
  List.iter
    (fun d ->
      match Workload.validate_demand d with
      | () -> Alcotest.fail "nonsense demand accepted"
      | exception Invalid_argument _ -> ())
    [
      Workload.Dpareto { alpha = 0.0; xmin_us = 10.0; xmax_us = 500.0 };
      Workload.Dpareto { alpha = 1.5; xmin_us = -1.0; xmax_us = 500.0 };
      Workload.Dpareto { alpha = 1.5; xmin_us = 500.0; xmax_us = 10.0 };
      Workload.Dlognorm { median_us = 0.0; sigma = 1.0 };
      Workload.Dlognorm { median_us = 50.0; sigma = -0.5 };
    ];
  Workload.validate_demand Workload.Dfixed

(* NaN fails every comparison, so a test written [v <= 0.0] let it
   through: each field's NaN is refused by name. *)
let test_workload_nan_refused () =
  let raises msg f = Alcotest.check_raises msg (Invalid_argument msg) f in
  let demand msg d =
    raises ("Workload: " ^ msg) (fun () -> Workload.validate_demand d)
  in
  demand "Pareto alpha must be > 0"
    (Workload.Dpareto { alpha = nan; xmin_us = 10.0; xmax_us = 100.0 });
  demand "Pareto xmin_us must be > 0"
    (Workload.Dpareto { alpha = 1.5; xmin_us = nan; xmax_us = 100.0 });
  demand "Pareto xmax_us must be > xmin_us"
    (Workload.Dpareto { alpha = 1.5; xmin_us = 10.0; xmax_us = nan });
  demand "lognormal median_us must be > 0"
    (Workload.Dlognorm { median_us = nan; sigma = 0.5 });
  demand "lognormal sigma must be >= 0"
    (Workload.Dlognorm { median_us = 20.0; sigma = nan });
  demand "Pareto alpha must be finite"
    (Workload.Dpareto { alpha = infinity; xmin_us = 10.0; xmax_us = 100.0 });
  demand "Pareto xmin_us must be finite"
    (Workload.Dpareto { alpha = 1.5; xmin_us = infinity; xmax_us = 100.0 });
  demand "Pareto xmax_us must be finite"
    (Workload.Dpareto { alpha = 1.5; xmin_us = 10.0; xmax_us = infinity });
  demand "lognormal median_us must be finite"
    (Workload.Dlognorm { median_us = infinity; sigma = 0.5 });
  demand "lognormal sigma must be finite"
    (Workload.Dlognorm { median_us = 20.0; sigma = infinity });
  let gen msg spec =
    raises ("Workload.gen: " ^ msg) (fun () ->
        ignore (Workload.gen spec ~rng:(Rng.create ~seed:1) ~ghz:1.0))
  in
  let bursty ?(rps_on = 1000.0) ?(rps_off = 10.0) ?(mean_on_us = 50.0)
      ?(mean_off_us = 50.0) ?(duration_us = 1000.0) () =
    Workload.Bursty { rps_on; rps_off; mean_on_us; mean_off_us; duration_us }
  in
  gen "Poisson rps must be > 0"
    (Workload.Poisson { rps = nan; duration_us = 1000.0 });
  gen "duration_us must be >= 0"
    (Workload.Poisson { rps = 1000.0; duration_us = nan });
  gen "bursty rps_on must be >= 0" (bursty ~rps_on:nan ());
  gen "bursty rps_off must be >= 0" (bursty ~rps_off:nan ());
  gen "bursty mean_on_us must be > 0" (bursty ~mean_on_us:nan ());
  gen "bursty mean_off_us must be > 0" (bursty ~mean_off_us:nan ());
  gen "duration_us must be >= 0" (bursty ~duration_us:nan ())

(* ------------------------------------------------------------------ *)
(* The plane end to end *)

let small_cfg ?(os = Plane.Nk) ?(backend = Plane.Fiber_exec)
    ?(policy = Iw_service.Dispatch.Po2) ?(seed = 42) () =
  {
    (Plane.default ~plat:Iw_hw.Platform.knl) with
    workers = 4;
    workload = Workload.Poisson { rps = 40_000.0; duration_us = 10_000.0 };
    policy;
    backend;
    os;
    work_us = 20.0;
    seed;
  }

let fingerprint (r : Plane.report) =
  Printf.sprintf "%d/%d/%d/%d/%d/%d/%d/%d" r.rep_arrivals r.rep_admitted
    r.rep_completed r.rep_shed r.rep_elapsed_cycles r.rep_busy_cycles
    (Hist.percentile r.rep_total 99.0)
    (Hist.percentile r.rep_queue 50.0)

let test_plane_conserves_requests () =
  let r = Plane.run (small_cfg ()) in
  check_bool "arrivals happened" true (r.rep_arrivals > 0);
  check_int "admitted = completed" r.rep_admitted r.rep_completed;
  check_int "arrivals = admitted + shed" r.rep_arrivals
    (r.rep_admitted + r.rep_shed);
  check_int "every completion in the histogram" r.rep_completed
    (Hist.count r.rep_total)

let test_plane_deterministic () =
  let a = Plane.run (small_cfg ()) in
  let b = Plane.run (small_cfg ()) in
  check_str "identical fingerprints" (fingerprint a) (fingerprint b);
  check_bool "histograms structurally equal" true
    (Hist.equal a.rep_total b.rep_total);
  let c = Plane.run (small_cfg ~seed:43 ()) in
  check_bool "different seed, different run" true
    (fingerprint a <> fingerprint c)

let test_plane_virtine_backend () =
  let backend =
    Plane.Virtine_exec
      {
        vconfig =
          {
            Iw_virtine.Wasp.default with
            profile = Iw_virtine.Wasp.Bespoke_16;
            snapshot = true;
            pooled = true;
          };
        pool = 8;
      }
  in
  let r =
    Plane.run
      { (small_cfg ~backend ()) with
        workload = Workload.Poisson { rps = 20_000.0; duration_us = 10_000.0 } }
  in
  check_int "admitted = completed" r.rep_admitted r.rep_completed;
  check_bool "pool was hit" true (r.rep_pool_hits > 0)

let test_plane_closed_loop () =
  let cfg =
    { (small_cfg ()) with
      workload = Workload.Closed { clients = 6; think_us = 200.0; duration_us = 10_000.0 } }
  in
  let a = Plane.run cfg and b = Plane.run cfg in
  check_bool "clients made requests" true (a.rep_completed > 0);
  check_int "admitted = completed" a.rep_admitted a.rep_completed;
  check_str "closed loop deterministic" (fingerprint a) (fingerprint b)

let test_plane_sheds_past_capacity () =
  let cfg =
    { (small_cfg ()) with
      queue_cap = 4;
      workload = Workload.Poisson { rps = 400_000.0; duration_us = 10_000.0 } }
  in
  let r = Plane.run cfg in
  check_bool "overload sheds" true (r.rep_shed > 0);
  check_int "admitted still all complete" r.rep_admitted r.rep_completed

let test_plane_personality_gap () =
  (* The S1 claim at test scale: same offered load, NK-like p99 below
     Linux-like p99. *)
  let load os =
    Plane.run
      { (small_cfg ~os ()) with
        workload = Workload.Poisson { rps = 170_000.0; duration_us = 20_000.0 } }
  in
  let nk = load Plane.Nk and lx = load Plane.Linux in
  check_bool "nk p99 < linux p99" true
    (Hist.percentile nk.rep_total 99.0 < Hist.percentile lx.rep_total 99.0)

let test_plane_zero_rate_faults_identical () =
  (* A rate-0 plan must not perturb the plane by a single byte. *)
  let run_with_plan rate =
    let plan =
      Iw_faults.Plan.create ~rate ~seed:42
        ~kinds:
          Iw_faults.Plan.[ Cpu_stall; Virtine_fail; Pool_poison; Worker_hang ]
        ()
    in
    Iw_faults.Plan.with_ambient plan (fun () -> Plane.run (small_cfg ()))
  in
  let bare = Plane.run (small_cfg ()) in
  let zero = run_with_plan 0.0 in
  check_str "rate-0 plan is invisible" (fingerprint bare) (fingerprint zero)

let test_plane_hang_watchdog_steals () =
  (* Standalone plane under worker hangs (clocked only: permanent
     hangs are fleet-mode): the watchdog keeps requests flowing and
     the run still conserves and terminates. *)
  let run () =
    Iw_faults.Plan.with_ambient
      (Iw_faults.Plan.create ~rate:0.05 ~seed:7
         ~kinds:Iw_faults.Plan.[ Worker_hang ]
         ())
      (fun () -> Plane.run (small_cfg ()))
  in
  let r = run () in
  check_bool "watchdog stole queued work" true (r.rep_steals > 0);
  check_int "admitted all complete despite hangs" r.rep_admitted
    r.rep_completed;
  check_str "hung plane deterministic" (fingerprint r) (fingerprint (run ()))

let test_plane_heavy_tail_demand () =
  (* Pareto service demands: same arrival schedule, heavier service
     tail, still conserving and deterministic. *)
  let cfg demand = { (small_cfg ()) with Plane.demand } in
  let heavy =
    cfg (Workload.Dpareto { alpha = 1.5; xmin_us = 8.0; xmax_us = 400.0 })
  in
  let a = Plane.run heavy in
  check_int "conserves under heavy tails" a.rep_admitted a.rep_completed;
  check_str "heavy-tail run deterministic" (fingerprint a)
    (fingerprint (Plane.run heavy));
  let fixed = Plane.run (cfg Workload.Dfixed) in
  check_int "same arrival schedule" fixed.rep_arrivals a.rep_arrivals;
  check_bool "heavier service tail" true
    (Hist.percentile a.rep_service 99.0 > Hist.percentile fixed.rep_service 99.0)

let test_plane_corrected_latency () =
  (* Open loop records an intended-send-time histogram; the corrected
     view can only be slower than the raw one. *)
  let r = Plane.run (small_cfg ()) in
  check_int "every completion corrected" (Hist.count r.rep_total)
    (Hist.count r.rep_total_corrected);
  check_bool "corrected p99 >= raw p99" true
    (Hist.percentile r.rep_total_corrected 99.0
    >= Hist.percentile r.rep_total 99.0);
  let closed =
    Plane.run
      { (small_cfg ()) with
        workload =
          Workload.Closed { clients = 6; think_us = 200.0; duration_us = 10_000.0 } }
  in
  check_int "closed loop records no intended times" 0
    (Hist.count closed.rep_total_corrected)

(* The arena-backed plane against pinned constants: any change to the
   hot path's event order, RNG draws, or arena recycling shows up here
   before it reaches the S1-S4 goldens. *)
let test_plane_pinned_fingerprint () =
  let r = Plane.run (small_cfg ()) in
  check_str "pinned fingerprint" "393/393/393/0/12993247/10230330/51200/912"
    (fingerprint r)

(* S-experiment registry determinism: text out of the registry is
   byte-identical across repeated runs (the golden gate relies on
   this; here it guards the table text itself). *)
let test_s_experiments_deterministic () =
  List.iter
    (fun id ->
      let e = Interweave.Experiments.find id in
      let a = Interweave.Experiments.run_to_string e in
      let b = Interweave.Experiments.run_to_string e in
      check_str (id ^ " byte-identical") a b)
    [ "S3" ]

(* ------------------------------------------------------------------ *)
(* The network model *)

(* A canonical message sequence: nondecreasing send times with random
   gaps, random payload sizes; often longer than the in-flight
   window. *)
let net_script =
  QCheck.(
    list_of_size
      Gen.(int_range 1 600)
      (pair (int_bound 2_000) (int_range 1 1_500)))

(* A 1 ms link: a window's worth of messages is sent well within one
   latency, so the in-flight window, not the wire, holds message i
   back. *)
let net_cfg = { Iw_service.Net.default with nc_lat_us = 1_000.0 }

let route_all script =
  let lk = Iw_service.Net.link net_cfg ~ghz:1.4 in
  let t = ref 0 in
  List.map
    (fun (gap, bytes) ->
      t := !t + gap;
      (!t, Iw_service.Net.route lk ~send:!t ~bytes ~extra:0))
    script

let prop_net_replay_identical =
  QCheck.Test.make ~name:"link routing is a pure function of the call sequence"
    ~count:200 net_script (fun script -> route_all script = route_all script)

let prop_net_delivery_bounds =
  QCheck.Test.make ~name:"delivery >= send + tx + latency, FIFO monotone"
    ~count:200 net_script (fun script ->
      let lat = Iw_service.Net.lat_cycles net_cfg ~ghz:1.4 in
      let deliveries = route_all script in
      let last = ref 0 in
      List.for_all
        (fun (send, d) ->
          let ok = d >= send + lat && d >= !last in
          last := d;
          ok)
        deliveries)

let prop_net_inflight_bound =
  QCheck.Test.make ~name:"message i waits for delivery of message i-bound"
    ~count:200 net_script (fun script ->
      let deliveries = Array.of_list (List.map snd (route_all script)) in
      let bound = Iw_service.Net.inflight in
      let lat = Iw_service.Net.lat_cycles net_cfg ~ghz:1.4 in
      let ok = ref true in
      Array.iteri
        (fun i d ->
          if i >= bound && d < deliveries.(i - bound) + lat then ok := false)
        deliveries;
      !ok)

(* An outbox is a sorted run of send times, which the fleet barrier's
   merge relies on: ties are fine, going back is refused, and a
   cleared outbox starts a new run. *)
let test_net_outbox_sorted_run () =
  let open Iw_service.Net in
  let b = mb_create () in
  List.iter (fun t -> mb_push b ~kind:k_req ~dst:0 ~a:t ~b:0 ~t) [ 5; 5; 9 ];
  check_int "three messages" 3 b.mb_n;
  Alcotest.check_raises "send time goes back"
    (Invalid_argument "Net.mb_push: send time before the previous message's")
    (fun () -> mb_push b ~kind:k_req ~dst:0 ~a:0 ~b:0 ~t:8);
  mb_clear b;
  mb_push b ~kind:k_req ~dst:0 ~a:0 ~b:0 ~t:1;
  check_int "a new run after clear" 1 b.mb_n

(* ------------------------------------------------------------------ *)
(* Weighted dispatch *)

let test_dispatch_wjsq_weighted_argmin () =
  let d =
    Iw_service.Dispatch.create Iw_service.Dispatch.Wjsq
      ~rng:(Iw_engine.Rng.create ~seed:7)
  in
  (* queue 1 is longer but four times as capable: (4+1)/4 < (2+1)/1 *)
  let len = function 0 -> 2 | _ -> 4 in
  let weight = function 0 -> 16 | _ -> 64 in
  check_int "capacity-normalized shortest wins" 1
    (Iw_service.Dispatch.pick d ~weight ~n:2 ~len);
  (* equal weights degenerate to jsq *)
  let j =
    Iw_service.Dispatch.create Iw_service.Dispatch.Jsq
      ~rng:(Iw_engine.Rng.create ~seed:7)
  in
  for _ = 0 to 50 do
    let lens = Array.init 4 (fun i -> (i * 13 mod 7) + 1) in
    check_int "uniform wjsq = jsq"
      (Iw_service.Dispatch.pick j ~n:4 ~len:(fun i -> lens.(i)))
      (Iw_service.Dispatch.pick d ~n:4 ~len:(fun i -> lens.(i)))
  done

let test_dispatch_wjsq_of_string () =
  check_bool "wjsq parses" true
    (Iw_service.Dispatch.of_string "wjsq" = Some Iw_service.Dispatch.Wjsq);
  check_str "name round-trips" "wjsq"
    (Iw_service.Dispatch.name Iw_service.Dispatch.Wjsq);
  check_bool "all is unchanged (S3 shape)" true
    (List.length Iw_service.Dispatch.all = 4);
  check_bool "all_weighted includes wjsq" true
    (List.mem Iw_service.Dispatch.Wjsq Iw_service.Dispatch.all_weighted)

(* ------------------------------------------------------------------ *)
(* The fleet *)

let small_fleet ?(policy = Iw_service.Dispatch.Po2) ?(gossip_us = 30.0)
    ?(rps = 150_000.0) ?(seed = 42) () =
  let open Iw_service in
  {
    (Fleet.default ()) with
    Fleet.fc_machines =
      [| Fleet.knl_spec ~workers:2 (); Fleet.server_spec ~workers:2 () |];
    fc_workload = Workload.Poisson { rps; duration_us = 5_000.0 };
    fc_policy = policy;
    fc_gossip_us = gossip_us;
    fc_seed = seed;
  }

let fleet_fingerprint (r : Iw_service.Fleet.report) =
  Printf.sprintf "%d/%d/%d/%d/%d/%d/%d/%d/%d" r.fr_arrivals r.fr_completed
    r.fr_failed r.fr_retries r.fr_nacks r.fr_windows r.fr_elapsed_cycles
    (Hist.percentile r.fr_total 99.0)
    (Hist.percentile r.fr_queue 50.0)

let test_fleet_conserves_requests () =
  let r = Iw_service.Fleet.run (small_fleet ()) in
  check_bool "arrivals happened" true (r.fr_arrivals > 0);
  check_int "arrivals = completed + failed" r.fr_arrivals
    (r.fr_completed + r.fr_failed);
  check_int "every completion in the e2e histogram" r.fr_completed
    (Hist.count r.fr_total);
  check_int "machine completions sum to fleet" r.fr_completed
    (Array.fold_left ( + ) 0 r.fr_m_completed)

let test_fleet_parallel_serial_identical () =
  let a = Iw_service.Fleet.run ~parallel:false (small_fleet ()) in
  let b = Iw_service.Fleet.run ~parallel:true (small_fleet ()) in
  check_str "fingerprints byte-identical" (fleet_fingerprint a)
    (fleet_fingerprint b);
  check_bool "e2e histograms equal" true (Hist.equal a.fr_total b.fr_total);
  check_bool "queue histograms equal" true (Hist.equal a.fr_queue b.fr_queue);
  check_bool "service histograms equal" true
    (Hist.equal a.fr_service b.fr_service);
  Array.iteri
    (fun m c -> check_int "per-machine completions equal" c b.fr_m_completed.(m))
    a.fr_m_completed;
  Array.iteri
    (fun m cs ->
      check_bool "per-machine counters equal" true (cs = b.fr_m_counters.(m)))
    a.fr_m_counters

let test_fleet_deterministic () =
  let a = Iw_service.Fleet.run (small_fleet ()) in
  let b = Iw_service.Fleet.run (small_fleet ()) in
  check_str "identical fingerprints" (fleet_fingerprint a) (fleet_fingerprint b);
  let c = Iw_service.Fleet.run (small_fleet ~seed:43 ()) in
  check_bool "different seed, different run" true
    (fleet_fingerprint a <> fleet_fingerprint c)

let test_fleet_po2_spreads_work () =
  (* po2 across machines at moderate load: every machine serves a
     share, the faster server-like box serves more per worker, and no
     timeouts fire. *)
  let r = Iw_service.Fleet.run (small_fleet ()) in
  Array.iter
    (fun c -> check_bool "every machine completed work" true (c > 0))
    r.fr_m_completed;
  check_int "no retries at moderate load" 0 r.fr_retries;
  check_int "no ejections" 0 r.fr_ejects;
  check_bool "faster box completes more" true
    (r.fr_m_completed.(1) > r.fr_m_completed.(0))

let test_fleet_gossip_flows () =
  let r = Iw_service.Fleet.run (small_fleet ()) in
  check_bool "gossip arrived" true (r.fr_gossip_msgs > 0);
  check_bool "network carried messages" true
    (r.fr_net_msgs > r.fr_arrivals + r.fr_completed)

let test_fleet_zero_rate_faults_identical () =
  (* A rate-0 plan must not perturb the fleet by a single byte, even
     with the service-level kinds armed: arming alone must draw
     nothing from any stream the simulation shares. *)
  let bare = Iw_service.Fleet.run (small_fleet ()) in
  let plan =
    Iw_faults.Plan.create ~rate:0.0 ~seed:42
      ~kinds:
        Iw_faults.Plan.
          [
            Link_drop; Link_delay; Machine_pause; Worker_hang; Req_corrupt;
            Machine_brownout;
          ]
      ()
  in
  let zero =
    Iw_faults.Plan.with_ambient plan (fun () ->
        Iw_service.Fleet.run (small_fleet ()))
  in
  check_str "rate-0 plan is invisible" (fleet_fingerprint bare)
    (fleet_fingerprint zero)

let test_fleet_faults_recovered () =
  (* Drops and pauses at a visible rate: recovery turns them into
     retries, not conservation violations. *)
  let plan =
    Iw_faults.Plan.create ~rate:0.02 ~seed:7
      ~kinds:Iw_faults.Plan.[ Link_drop; Machine_pause ]
      ()
  in
  let r =
    Iw_faults.Plan.with_ambient plan (fun () ->
        Iw_service.Fleet.run (small_fleet ()))
  in
  check_bool "faults dropped messages" true (r.fr_net_drops > 0);
  check_bool "retries recovered them" true (r.fr_retries > 0);
  check_int "conservation still holds" r.fr_arrivals
    (r.fr_completed + r.fr_failed)

let with_kinds ~rate ~seed kinds f =
  Iw_faults.Plan.with_ambient
    (Iw_faults.Plan.create ~rate ~seed ~kinds ())
    f

let test_fleet_hang_steal_conservation () =
  (* Hung workers strand queued requests; the watchdog steals them
     onto live peers.  Every request is still accounted for, and the
     report's steal total matches the typed per-machine counters. *)
  let r =
    with_kinds ~rate:0.05 ~seed:7
      Iw_faults.Plan.[ Worker_hang ]
      (fun () -> Iw_service.Fleet.run (small_fleet ()))
  in
  check_bool "hangs injected" true (r.fr_steals > 0);
  check_int "conservation under stealing" r.fr_arrivals
    (r.fr_completed + r.fr_failed);
  let counted =
    Array.fold_left
      (fun acc cs ->
        acc
        + List.fold_left
            (fun a (n, v) -> if n = "peer_steal" then a + v else a)
            0 cs)
      0 r.fr_m_counters
  in
  check_int "report steals = typed counters" counted r.fr_steals;
  (* watchdog off: same chaos, no recovery, requests still conserved *)
  let off =
    with_kinds ~rate:0.05 ~seed:7
      Iw_faults.Plan.[ Worker_hang ]
      (fun () ->
        Iw_service.Fleet.run
          { (small_fleet ()) with Iw_service.Fleet.fc_watchdog = false })
  in
  check_int "no steals without the watchdog" 0 off.fr_steals;
  check_int "conservation without recovery" off.fr_arrivals
    (off.fr_completed + off.fr_failed)

let test_fleet_hedge_first_response_wins () =
  (* Hedged requests: exactly one copy completes each request, wins
     never exceed hedges sent, and the whole dance is deterministic
     and identical across parallel and serial fleets. *)
  let cfg () =
    {
      (small_fleet ~rps:250_000.0 ()) with
      Iw_service.Fleet.fc_deadline_us = 150.0;
      fc_hedge_frac = 0.3;
      fc_hedge_budget = 0.2;
    }
  in
  let a = Iw_service.Fleet.run ~parallel:false (cfg ()) in
  check_bool "hedges were sent" true (a.fr_hedges > 0);
  check_bool "wins bounded by hedges" true (a.fr_hedge_wins <= a.fr_hedges);
  check_bool "cancels bounded by hedges" true
    (a.fr_hedge_cancels <= a.fr_hedges);
  check_int "first response wins exactly once" a.fr_arrivals
    (a.fr_completed + a.fr_failed);
  let b = Iw_service.Fleet.run ~parallel:true (cfg ()) in
  check_str "hedged fleet parallel = serial" (fleet_fingerprint a)
    (fleet_fingerprint b);
  check_int "hedge count identical" a.fr_hedges b.fr_hedges;
  check_int "hedge wins identical" a.fr_hedge_wins b.fr_hedge_wins

(* A config the plane or the fleet cannot run is refused before the
   simulator starts, naming the field. *)
let test_rejections_name_the_field () =
  let open Iw_service in
  let raises msg f =
    Alcotest.check_raises msg (Invalid_argument msg) (fun () -> ignore (f ()))
  in
  let plane = small_cfg () in
  raises "Plane.run: workers must be >= 1" (fun () ->
      Plane.run { plane with workers = 0 });
  raises "Plane.run: clients must be >= 1" (fun () ->
      Plane.run
        {
          plane with
          workload =
            Workload.Closed { clients = 0; think_us = 1.0; duration_us = 1.0 };
        });
  raises
    "Exec.create: worker-hang at rate 1 never lets a single-machine plane \
     complete a request; use a rate below 1" (fun () ->
      Iw_faults.Plan.with_ambient
        (Iw_faults.Plan.create ~rate:1.0 ~seed:7
           ~kinds:Iw_faults.Plan.[ Worker_hang ] ())
        (fun () -> Plane.run plane));
  let fleet = small_fleet () in
  raises "Fleet.run: fc_machines is empty" (fun () ->
      Fleet.run { fleet with fc_machines = [||] });
  raises "Fleet.run: fc_workload must be open-loop" (fun () ->
      Fleet.run
        {
          fleet with
          fc_workload =
            Workload.Closed { clients = 1; think_us = 1.0; duration_us = 1.0 };
        });
  raises "Fleet.run: fc_machines.(0).ms_workers must be >= 1" (fun () ->
      Fleet.run { fleet with fc_machines = [| Fleet.knl_spec ~workers:0 () |] });
  raises "Fleet.run: fc_machines.(1).ms_speed must be > 0" (fun () ->
      Fleet.run
        {
          fleet with
          fc_machines =
            [| Fleet.knl_spec (); { (Fleet.knl_spec ()) with ms_speed = 0.0 } |];
        });
  raises "Net: nc_lat_us 0.0001 is below one cycle at 1.3 GHz" (fun () ->
      Fleet.run
        { fleet with fc_net = { Net.default with nc_lat_us = 0.0001 } });
  (* Unchecked, each of these values runs, or fails inside a module
     that names neither the run nor the field. *)
  raises "Plane.run: queue_cap must be >= 1" (fun () ->
      Plane.run { plane with queue_cap = 0 });
  (* Each queue preallocates its cap and the arena sizes from it, so a
     huge cap used to fail in [Array.make] or ask for gigabytes. *)
  List.iter
    (fun queue_cap ->
      raises "Plane.run: queue_cap must be <= 65536" (fun () ->
          Plane.run { plane with queue_cap }))
    [ 65_537; max_int ];
  raises "Plane.run: work_us must be >= 0" (fun () ->
      Plane.run { plane with work_us = -5.0 });
  raises "Plane.run: hi_frac must be in [0,1]" (fun () ->
      Plane.run { plane with hi_frac = 2.0 });
  let fleet_raises field f = raises ("Fleet.run: " ^ field) (fun () -> Fleet.run f) in
  fleet_raises "fc_queue_cap must be >= 1" { fleet with fc_queue_cap = 0 };
  List.iter
    (fun fc_queue_cap ->
      fleet_raises "fc_queue_cap must be <= 65536" { fleet with fc_queue_cap })
    [ 65_537; max_int ];
  fleet_raises "fc_work_us must be >= 0" { fleet with fc_work_us = -5.0 };
  fleet_raises "fc_hi_frac must be in [0,1]" { fleet with fc_hi_frac = 2.0 };
  fleet_raises "fc_gossip_us must be >= 0" { fleet with fc_gossip_us = -1.0 };
  fleet_raises "fc_slo_us must be >= 0" { fleet with fc_slo_us = -1.0 };
  fleet_raises "fc_slo_target must be in (0,1)" { fleet with fc_slo_target = 1.5 };
  fleet_raises "fc_hedge_frac must be in [0,1]" { fleet with fc_hedge_frac = 3.0 };
  fleet_raises "fc_hedge_budget must be in [0,1]" { fleet with fc_hedge_budget = -1.0 };
  fleet_raises "fc_deadline_us must be >= 0" { fleet with fc_deadline_us = -1.0 };
  fleet_raises "fc_itr_us must be >= 0" { fleet with fc_itr_us = -1.0 }

let test_fleet_admission_sheds_and_conserves () =
  (* Overload with admission control on: arrivals split three ways
     (completed, failed, shed at the door), and sheds count against
     the SLO. *)
  let r =
    Iw_service.Fleet.run
      {
        (small_fleet ~rps:500_000.0 ()) with
        Iw_service.Fleet.fc_admit = true;
        fc_deadline_us = 100.0;
        fc_slo_us = 100.0;
      }
  in
  check_bool "admission shed fired" true (r.fr_admission_shed > 0);
  check_int "three-way conservation" r.fr_arrivals
    (r.fr_completed + r.fr_failed + r.fr_admission_shed);
  check_bool "sheds count against the SLO" true
    (r.fr_slo_total >= r.fr_completed + r.fr_failed + r.fr_admission_shed)

let test_fleet_corrupt_reexec () =
  let run retry =
    with_kinds ~rate:0.05 ~seed:7
      Iw_faults.Plan.[ Req_corrupt ]
      (fun () ->
        Iw_service.Fleet.run
          { (small_fleet ()) with Iw_service.Fleet.fc_corrupt_retry = retry })
  in
  let on = run true in
  check_bool "corrupt responses re-executed" true (on.fr_corrupt_retries > 0);
  check_int "conservation under re-execution" on.fr_arrivals
    (on.fr_completed + on.fr_failed);
  let off = run false in
  check_int "no re-execution when disabled" 0 off.fr_corrupt_retries;
  check_int "conservation when accepting garbage" off.fr_arrivals
    (off.fr_completed + off.fr_failed)

let test_fleet_brownout_recovers_par_serial () =
  (* Brownouts draw at the coordinator's barrier, so a browned-out
     fleet still runs parallel — and byte-identical to serial. *)
  let run parallel =
    with_kinds ~rate:0.02 ~seed:7
      Iw_faults.Plan.[ Machine_brownout ]
      (fun () -> Iw_service.Fleet.run ~parallel (small_fleet ()))
  in
  let a = run false in
  check_bool "brownouts injected" true (a.fr_brownouts > 0);
  check_int "conservation under brownouts" a.fr_arrivals
    (a.fr_completed + a.fr_failed);
  let b = run true in
  check_str "browned-out fleet parallel = serial" (fleet_fingerprint a)
    (fleet_fingerprint b);
  check_int "brownout count identical" a.fr_brownouts b.fr_brownouts;
  (* bw-wjsq under brownouts: still deterministic and conserving *)
  let aware =
    with_kinds ~rate:0.02 ~seed:7
      Iw_faults.Plan.[ Machine_brownout ]
      (fun () ->
        Iw_service.Fleet.run
          {
            (small_fleet ~policy:Iw_service.Dispatch.Wjsq ()) with
            Iw_service.Fleet.fc_bw_wjsq = true;
          })
  in
  check_int "bw-wjsq conserves" aware.fr_arrivals
    (aware.fr_completed + aware.fr_failed)

(* The fleet's report counts against pinned constants, with every
   recovery path engaged at once: hedging, admission control, and
   corruption re-execution under brownouts and link drops.  Any change
   to how the front tier or the machines count shows up here. *)
let pinned_fleet_fingerprint (r : Iw_service.Fleet.report) =
  Printf.sprintf "%d/%d/%d/%d/%d/%d/%d/%d/%d/%d/%d/%d/%d/%d/%d/%d/%d/%d/%d/%s"
    r.fr_arrivals r.fr_completed r.fr_failed r.fr_retries r.fr_nacks
    r.fr_net_msgs r.fr_net_drops r.fr_gossip_msgs r.fr_ejects r.fr_hedges
    r.fr_hedge_wins r.fr_hedge_cancels r.fr_admission_shed
    r.fr_corrupt_retries r.fr_steals r.fr_brownouts r.fr_slo_good
    r.fr_slo_total r.fr_windows
    (String.concat ","
       (Array.to_list (Array.map string_of_int r.fr_m_completed)))

let test_fleet_pinned_fingerprint () =
  let r =
    with_kinds ~rate:0.02 ~seed:7
      Iw_faults.Plan.[ Req_corrupt; Machine_brownout; Link_drop ]
      (fun () ->
        Iw_service.Fleet.run
          {
            (small_fleet ~rps:400_000.0 ()) with
            Iw_service.Fleet.fc_deadline_us = 120.0;
            fc_hedge_frac = 0.3;
            fc_hedge_budget = 0.2;
            fc_admit = true;
            fc_slo_us = 150.0;
          })
  in
  check_str "pinned fleet fingerprint"
    "1982/658/0/19/0/2698/61/675/0/371/76/337/1324/5/0/22/466/1982/690/447,574"
    (pinned_fleet_fingerprint r)

(* The fleet's allocation cap, the twin of the coherence replay's
   budget: a routed message, a timer and a window allocate nothing, so
   a longer run costs at most one more minor word per extra arrival.
   The difference of two durations cancels the fixed setup.  The runs
   are serial because [Gc.minor_words] counts only the running
   domain.  An untimed warm-up run comes first: a process's first
   [Fleet.run] allocates about 75 words more than later ones, which
   would bias the shorter run. *)
let test_fleet_allocation_cap () =
  let open Iw_service in
  let machines () =
    [| Fleet.knl_spec ~workers:4 (); Fleet.server_spec ~workers:2 () |]
  in
  let nic ms =
    {
      (Fleet.default ()) with
      Fleet.fc_machines = machines ();
      fc_workload = Workload.Poisson { rps = 200_000.0; duration_us = ms *. 1e3 };
      fc_slo_us = 100.0;
      fc_nic = true;
    }
  in
  let chaos ms =
    {
      (Fleet.default ()) with
      Fleet.fc_machines = machines ();
      fc_workload = Workload.Poisson { rps = 120_000.0; duration_us = ms *. 1e3 };
      fc_demand = Workload.Dpareto { alpha = 1.5; xmin_us = 10.0; xmax_us = 2000.0 };
      fc_hedge_frac = 0.5;
      fc_deadline_us = 1000.0;
      fc_slo_us = 1000.0;
    }
  in
  let plan () =
    Iw_faults.Plan.create ~rate:3e-5 ~seed:42
      ~kinds:Iw_faults.Plan.[ Req_corrupt; Machine_brownout; Link_drop ]
      ()
  in
  let measure name cfg ~with_plan =
    let run ms =
      let w0 = Gc.minor_words () in
      let r =
        if with_plan then
          Iw_faults.Plan.with_ambient (plan ()) (fun () ->
              Fleet.run ~parallel:false (cfg ms))
        else Fleet.run ~parallel:false (cfg ms)
      in
      (Gc.minor_words () -. w0, r.Fleet.fr_arrivals)
    in
    let ws, as_ = run 20.0 in
    let wl, al = run 60.0 in
    let per = (wl -. ws) /. float_of_int (al - as_) in
    Printf.printf "%s: %.4f minor words per extra arrival\n" name per;
    check_bool
      (Printf.sprintf "%s: %.4f words per arrival <= 1" name per)
      true (per <= 1.0)
  in
  ignore (Fleet.run ~parallel:false (nic 5.0));
  measure "fleet-nic" nic ~with_plan:false;
  measure "chaos-fleet" chaos ~with_plan:true

(* A first slice of a whole-config fuzzer.  A random fleet -- two to
   four machines of either kind, any balancer policy, hedging,
   admission, brownout-aware wjsq, the NIC and the SLO each on or off,
   up to three coordinator-side fault kinds -- must account for every
   arrival and write the same report on one domain and on two.  The
   fault kinds are the ones drawn at the front tier or the barrier, so
   the run stays parallel. *)
type fleet_case = {
  fz_cfg : Iw_service.Fleet.config;
  fz_kinds : Iw_faults.Plan.kind list;
  fz_rate : float;
  fz_plan_seed : int;
}

let fleet_case =
  let open QCheck.Gen in
  let open Iw_service in
  let machine =
    map2
      (fun srv workers ->
        if srv then Fleet.server_spec ~workers () else Fleet.knl_spec ~workers ())
      bool (int_range 1 4)
  in
  let us lo hi on = if on then float_range lo hi else return 0.0 in
  let gen =
    list_size (int_range 2 4) machine >>= fun machines ->
    oneofl Dispatch.all_weighted >>= fun policy ->
    int_range 50_000 400_000 >>= fun rps ->
    bool >>= fun hedge ->
    bool >>= fun admit ->
    bool >>= fun bw_wjsq ->
    bool >>= fun nic ->
    bool >>= fun slo ->
    us 100.0 400.0 (hedge || admit) >>= fun deadline_us ->
    us 100.0 400.0 slo >>= fun slo_us ->
    shuffle_l
      Iw_faults.Plan.
        [ Link_drop; Link_delay; Machine_pause; Machine_brownout; Req_corrupt ]
    >>= fun kinds ->
    int_range 0 3 >>= fun nk ->
    float_range 0.0 2e-2 >>= fun rate ->
    int_bound 10_000 >>= fun seed ->
    int_bound 10_000 >>= fun plan_seed ->
    return
      {
        fz_cfg =
          {
            (Fleet.default ()) with
            Fleet.fc_machines = Array.of_list machines;
            fc_workload =
              Workload.Poisson { rps = float_of_int rps; duration_us = 5_000.0 };
            fc_policy = policy;
            fc_hedge_frac = (if hedge then 0.5 else 0.0);
            fc_admit = admit;
            fc_deadline_us = deadline_us;
            fc_bw_wjsq = bw_wjsq;
            fc_nic = nic;
            fc_slo_us = slo_us;
            fc_seed = seed;
          };
        fz_kinds = List.filteri (fun i _ -> i < nk) kinds;
        fz_rate = rate;
        fz_plan_seed = plan_seed;
      }
  in
  let print c =
    let f = c.fz_cfg in
    Printf.sprintf
      "machines=%s policy=%s rps=%g hedge=%g admit=%b deadline=%g bw_wjsq=%b \
       nic=%b slo=%g seed=%d faults=%s rate=%g plan_seed=%d"
      (String.concat "+"
         (Array.to_list
            (Array.map
               (fun m ->
                 Printf.sprintf "%s:%d" m.Iw_service.Fleet.ms_name m.ms_workers)
               f.Iw_service.Fleet.fc_machines)))
      (Iw_service.Dispatch.name f.fc_policy)
      (Iw_service.Workload.offered_rps f.fc_workload)
      f.fc_hedge_frac f.fc_admit f.fc_deadline_us f.fc_bw_wjsq f.fc_nic f.fc_slo_us
      f.fc_seed
      (String.concat "," (List.map Iw_faults.Plan.kind_name c.fz_kinds))
      c.fz_rate c.fz_plan_seed
  in
  QCheck.make ~print gen

let prop_fleet_fuzz_conserves =
  QCheck.Test.make ~name:"random fleets conserve requests and match serial"
    ~count:30 fleet_case (fun c ->
      let run parallel =
        with_kinds ~rate:c.fz_rate ~seed:c.fz_plan_seed c.fz_kinds (fun () ->
            Iw_service.Fleet.run ~parallel c.fz_cfg)
      in
      let r = run false and par = run true in
      let ended = r.fr_completed + r.fr_failed + r.fr_admission_shed in
      let slo_total = if c.fz_cfg.fc_slo_us > 0.0 then ended else 0 in
      let machine_done = Array.fold_left ( + ) 0 r.fr_m_completed in
      let digest v = Digest.string (Marshal.to_string v [ Marshal.No_sharing ]) in
      if r.fr_arrivals <> ended then
        QCheck.Test.fail_reportf "arrivals %d <> completed %d + failed %d + shed %d"
          r.fr_arrivals r.fr_completed r.fr_failed r.fr_admission_shed;
      if r.fr_slo_total <> slo_total then
        QCheck.Test.fail_reportf "slo_total %d <> %d" r.fr_slo_total slo_total;
      if machine_done < r.fr_completed then
        QCheck.Test.fail_reportf "machines completed %d < front completed %d"
          machine_done r.fr_completed;
      if digest r <> digest par then
        QCheck.Test.fail_reportf "serial and parallel reports differ";
      true)

let test_fleet_counter_table () =
  let r = Iw_service.Fleet.run (small_fleet ()) in
  let members =
    Array.to_list
      (Array.map2 (fun n c -> (n, c)) r.fr_m_names r.fr_m_counters)
  in
  let t = Interweave.Machine.Fleet.counter_table members in
  let rendered = Interweave.Table.render t in
  let contains needle =
    let nh = String.length rendered and nn = String.length needle in
    let rec go i =
      i + nn <= nh && (String.sub rendered i nn = needle || go (i + 1))
    in
    go 0
  in
  check_bool "table mentions both machines" true
    (contains "m0:knl" && contains "m1:srv");
  let sum_admitted =
    List.fold_left
      (fun acc (_, cs) ->
        acc
        + List.fold_left
            (fun a (n, v) -> if n = "service_admitted" then a + v else a)
            0 cs)
      0 members
  in
  check_int "totals fold across machines" sum_admitted
    (Interweave.Machine.Fleet.total members "service_admitted")

let () =
  Alcotest.run "service"
    [
      ( "hist",
        [
          QCheck_alcotest.to_alcotest prop_merge_commutative;
          QCheck_alcotest.to_alcotest prop_merge_associative;
          QCheck_alcotest.to_alcotest prop_merge_is_concat;
          QCheck_alcotest.to_alcotest prop_percentile_exact;
          QCheck_alcotest.to_alcotest prop_window_percentile_exact;
          Alcotest.test_case "small values exact" `Quick
            test_hist_small_values_exact;
          Alcotest.test_case "quantize bounds" `Quick test_hist_quantize_bounds;
          Alcotest.test_case "empty" `Quick test_hist_empty;
        ] );
      ( "arena",
        [
          QCheck_alcotest.to_alcotest prop_arena_model;
          QCheck_alcotest.to_alcotest prop_arena_free_list_conserved;
          Alcotest.test_case "100k-op churn conserves" `Quick
            test_arena_churn_100k;
          Alcotest.test_case "free of dead slot raises" `Quick
            test_arena_free_dead_raises;
        ] );
      ( "squeue",
        [
          Alcotest.test_case "fifo order" `Quick test_squeue_fifo_order;
          Alcotest.test_case "priority order" `Quick test_squeue_priority_order;
          Alcotest.test_case "drop tail" `Quick test_squeue_drop_tail;
        ] );
      ( "dispatch",
        [
          Alcotest.test_case "rr cycles" `Quick test_dispatch_rr_cycles;
          Alcotest.test_case "jsq shortest" `Quick test_dispatch_jsq_shortest;
          Alcotest.test_case "po2 prefers shorter" `Quick
            test_dispatch_po2_prefers_shorter;
          Alcotest.test_case "random deterministic" `Quick
            test_dispatch_deterministic;
          Alcotest.test_case "wjsq weighted argmin" `Quick
            test_dispatch_wjsq_weighted_argmin;
          Alcotest.test_case "wjsq naming" `Quick test_dispatch_wjsq_of_string;
        ] );
      ( "net",
        [
          QCheck_alcotest.to_alcotest prop_net_replay_identical;
          QCheck_alcotest.to_alcotest prop_net_delivery_bounds;
          QCheck_alcotest.to_alcotest prop_net_inflight_bound;
          Alcotest.test_case "outbox is a sorted run" `Quick
            test_net_outbox_sorted_run;
        ] );
      ( "fleet",
        [
          Alcotest.test_case "conserves requests" `Quick
            test_fleet_conserves_requests;
          Alcotest.test_case "parallel = serial, byte-identical" `Quick
            test_fleet_parallel_serial_identical;
          Alcotest.test_case "deterministic" `Quick test_fleet_deterministic;
          Alcotest.test_case "po2 spreads work" `Quick
            test_fleet_po2_spreads_work;
          Alcotest.test_case "gossip flows" `Quick test_fleet_gossip_flows;
          Alcotest.test_case "rate-0 faults identical" `Quick
            test_fleet_zero_rate_faults_identical;
          Alcotest.test_case "faults recovered" `Quick
            test_fleet_faults_recovered;
          Alcotest.test_case "hang steals conserve" `Quick
            test_fleet_hang_steal_conservation;
          Alcotest.test_case "hedge first response wins" `Quick
            test_fleet_hedge_first_response_wins;
          Alcotest.test_case "admission sheds + conserves" `Quick
            test_fleet_admission_sheds_and_conserves;
          Alcotest.test_case "corrupt re-execution" `Quick
            test_fleet_corrupt_reexec;
          Alcotest.test_case "brownout par = serial" `Quick
            test_fleet_brownout_recovers_par_serial;
          Alcotest.test_case "pinned fingerprint" `Quick
            test_fleet_pinned_fingerprint;
          Alcotest.test_case "fleet counter table" `Quick
            test_fleet_counter_table;
          Alcotest.test_case "allocation cap" `Quick test_fleet_allocation_cap;
          QCheck_alcotest.to_alcotest prop_fleet_fuzz_conserves;
          Alcotest.test_case "rejections name the field" `Quick
            test_rejections_name_the_field;
        ] );
      ( "workload",
        [
          Alcotest.test_case "poisson deterministic" `Quick
            test_workload_poisson_deterministic;
          Alcotest.test_case "poisson rate" `Quick test_workload_poisson_rate;
          Alcotest.test_case "bursty modulates" `Quick
            test_workload_bursty_modulates;
          Alcotest.test_case "offered rps" `Quick test_workload_offered_rps;
          QCheck_alcotest.to_alcotest prop_demand_deterministic_bounded;
          QCheck_alcotest.to_alcotest prop_demand_streams_independent;
          Alcotest.test_case "demand validation" `Quick
            test_workload_demand_validation;
          Alcotest.test_case "NaN refused, naming the field" `Quick
            test_workload_nan_refused;
        ] );
      ( "plane",
        [
          Alcotest.test_case "conserves requests" `Quick
            test_plane_conserves_requests;
          Alcotest.test_case "deterministic" `Quick test_plane_deterministic;
          Alcotest.test_case "virtine backend" `Quick test_plane_virtine_backend;
          Alcotest.test_case "closed loop" `Quick test_plane_closed_loop;
          Alcotest.test_case "sheds past capacity" `Quick
            test_plane_sheds_past_capacity;
          Alcotest.test_case "personality gap" `Quick
            test_plane_personality_gap;
          Alcotest.test_case "rate-0 faults identical" `Quick
            test_plane_zero_rate_faults_identical;
          Alcotest.test_case "hang watchdog steals" `Quick
            test_plane_hang_watchdog_steals;
          Alcotest.test_case "heavy-tail demand" `Quick
            test_plane_heavy_tail_demand;
          Alcotest.test_case "corrected latency" `Quick
            test_plane_corrected_latency;
          Alcotest.test_case "pinned fingerprint" `Quick
            test_plane_pinned_fingerprint;
          Alcotest.test_case "S tables byte-identical" `Quick
            test_s_experiments_deterministic;
        ] );
    ]
