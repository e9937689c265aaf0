(* The five workloads.  Each runs in a fresh child process, sets up
   its inputs from the seed, calls into the stack's public functions
   through [Probe.call], then checks the outputs and reads the
   simulated results back.

   Every workload reaches a different mix of layers, so that an
   optimisation of one layer has a workload that exercises it and one
   that bypasses it (see each [why]). *)

open Iw_service

type outcome = {
  ops : int;  (** operations attempted *)
  failed : int;  (** failed, shed or refused operations *)
  problems : string list;  (** failed checks; empty when all pass *)
  digest : string;  (** of the simulated outputs *)
  sim : (string * float) list;
      (** simulated results by metric name: identical on every
          repetition of one seed *)
  host : (string * float) list;
      (** host-side per-layer measurements of this repetition *)
}

type ctx = {
  quick : bool;  (** scaled down to well under a second *)
  seed : int;
  rep : int;
  golden : string;  (** directory of committed counter snapshots *)
}

type t = {
  name : string;
  op : string;  (** the unit [ops_per_host_s] counts *)
  why : string;
  size : quick:bool -> string;
  run : ctx -> outcome;
}

let digest v =
  Digest.to_hex (Digest.string (Marshal.to_string v [ Marshal.No_sharing ]))

(* Seed [s] is xor-folded into every library RNG stream (the child
   calls [Rng.set_global_seed s]) and offsets the component seeds the
   workloads pass explicitly, which also reach the stateless demand
   hash and the fault plan.  The offset is a multiple of 1000 because
   the fold is an xor: 42 + s would cancel it at s = 1 and replay seed
   0.  Seed 0 keeps every library default. *)
let component_seed seed = 42 + (1000 * seed)

let frac a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b
let check ok msg problems = if ok then problems else msg :: problems

(* In the traced repetition, run [f] under a collecting observability
   context and also return the machine-wide counter totals of
   everything [f] booted. *)
let counted f =
  if !Probe.traced then begin
    let obs = Iw_obs.Obs.create ~collect:true () in
    let r = Iw_obs.Obs.with_ambient obs f in
    (r, Some (Iw_obs.Obs.total_counters obs))
  end
  else (f (), None)

let switches ctrs ~ops =
  match ctrs with
  | None -> []
  | Some c ->
      [
        ( "kernel.switches_per_op",
          frac (Iw_obs.Counter.get c Iw_obs.Counter.Context_switches) ops );
      ]

(* ------------------------------------------------------------------ *)

let coherence_pbbs =
  let cores = 24 in
  let per_core ~quick = if quick then 1_024 else 8_192 in
  let runs_per_rep = 2 * List.length Iw_coherence.Traces.pbbs_suite in
  {
    name = "coherence-pbbs";
    op = "access";
    why =
      "Coherence replay does all the work and engine, kernel and service \
       none; Off runs go through the directory, deactivated runs mostly \
       bypass it.";
    size =
      (fun ~quick ->
        Printf.sprintf
          "8 PBBS surrogates x {Off, Private_and_ro} on a 24-core 2x12 \
           machine, %d accesses per core per run: %d accesses"
          (per_core ~quick)
          (runs_per_rep * cores * per_core ~quick));
    run =
      (fun ctx ->
        let open Iw_coherence in
        let params = Machine.default_params ~cores ~cores_per_socket:12 in
        let per_core = per_core ~quick:ctx.quick in
        let seed = component_seed ctx.seed in
        let off_s = ref 0.0 and deact_s = ref 0.0 in
        (* Only what the checks and results need survives a replay,
           so the child holds one machine at a time, as E6 does. *)
        let replay (b : Traces.bench) d =
          let dname, acc =
            match d with
            | Machine.Off -> ("Off", off_s)
            | _ -> ("Private_and_ro", deact_s)
          in
          let m, dt, _ =
            Probe.call ~layer:"coherence"
              ~name:(Printf.sprintf "Traces.run_bench %s %s" dname b.bench_name)
              (fun () -> Traces.run_bench ~seed ~params d b)
          in
          acc := !acc +. dt;
          ( Machine.makespan m,
            Machine.counters m,
            Machine.interconnect_energy m,
            d <> Machine.Off || Machine.swmr_holds m )
        in
        let rows =
          List.map
            (fun (b : Traces.bench) ->
              let b = { b with accesses_per_core = per_core } in
              let base = replay b Machine.Off in
              (base, replay b Machine.Private_and_ro))
            Traces.pbbs_suite
        in
        let runs = List.concat_map (fun (b, d) -> [ b; d ]) rows in
        let sum f = List.fold_left (fun a (_, c, _, _) -> a + f c) 0 runs in
        let accesses = sum (fun c -> c.Machine.accesses) in
        let expected = runs_per_rep * cores * per_core in
        let mean f =
          List.fold_left (fun a (b, d) -> a +. f b d) 0.0 rows
          /. float_of_int (List.length rows)
        in
        let per_k n = 1000.0 *. frac n accesses in
        {
          ops = accesses;
          failed = 0;
          problems =
            []
            |> check (accesses = expected)
                 (Printf.sprintf "replayed %d accesses, expected %d" accesses
                    expected)
            |> check
                 (List.for_all (fun (_, _, _, swmr) -> swmr) runs)
                 "SWMR violated on an Off machine";
          digest = digest runs;
          sim =
            [
              ( "coherence.sim_speedup",
                mean (fun (bc, _, _, _) (dc, _, _, _) ->
                    float_of_int bc /. float_of_int (max 1 dc)) );
              ( "coherence.sim_energy_reduction_pct",
                mean (fun (_, _, be, _) (_, _, de, _) ->
                    100.0 *. (1.0 -. (de /. Float.max 1e-9 be))) );
              ("coherence.hit_frac", frac (sum (fun c -> c.Machine.hits)) accesses);
              ( "coherence.inval_per_kaccess",
                per_k (sum (fun c -> c.Machine.invalidations)) );
              ( "coherence.dir_req_per_kaccess",
                per_k (sum (fun c -> c.Machine.dir_requests)) );
            ];
          host =
            [
              ("coherence.replay_off_s", !off_s);
              ("coherence.replay_deact_s", !deact_s);
            ];
        });
  }

(* ------------------------------------------------------------------ *)

let serve =
  let sim_s ~quick = if quick then 0.2 else 1.0 in
  {
    name = "serve";
    op = "request";
    why =
      "One machine serving open-loop requests: engine heap and timer wheel, \
       kernel flat threads and Exec on the allocation-free hot path; no \
       network, no coherence.";
    size =
      (fun ~quick ->
        Printf.sprintf
          "Plane.run: nk, 8 fiber workers, po2, fifo, cap 64, 20 us bodies, \
           open-loop Poisson 300k rps x %g s simulated (util 0.75)"
          (sim_s ~quick));
    run =
      (fun ctx ->
        let cfg =
          {
            (Plane.default ~plat:Iw_hw.Platform.knl) with
            workload =
              Workload.Poisson
                { rps = 300_000.0; duration_us = sim_s ~quick:ctx.quick *. 1e6 };
            work_us = 20.0;
            seed = component_seed ctx.seed;
          }
        in
        let (r, dt, _), ctrs =
          counted (fun () ->
              Probe.call ~layer:"service" ~name:"Plane.run" (fun () ->
                  Plane.run cfg))
        in
        let p h q = Plane.percentile_us r h q in
        let ops = r.rep_arrivals in
        {
          ops;
          failed = r.rep_shed;
          problems =
            check
              (r.rep_arrivals = r.rep_completed + r.rep_shed)
              (Printf.sprintf "arrivals %d <> completed %d + shed %d"
                 r.rep_arrivals r.rep_completed r.rep_shed)
              [];
          (* The allocation fields are host measurements, not outputs. *)
          digest =
            digest
              { r with rep_run_minor_words = 0.0; rep_run_major_words = 0.0 };
          sim =
            [
              ("service.sim_p50_us", p r.rep_total_corrected 50.0);
              ("service.sim_p99_us", p r.rep_total_corrected 99.0);
              ("service.queue_p99_us", p r.rep_queue 99.0);
              ("service.service_p99_us", p r.rep_service 99.0);
              ("service.utilization", r.rep_utilization);
              ( "service.loadgen_lag_p99_us",
                p r.rep_total_corrected 99.0 -. p r.rep_total 99.0 );
            ]
            @ switches ctrs ~ops;
          host = [ ("service.plane_run_s", dt) ];
        });
  }

(* ------------------------------------------------------------------ *)

let two_machines () =
  [| Fleet.knl_spec ~workers:4 (); Fleet.server_spec ~workers:2 () |]

let conserves (r : Fleet.report) problems =
  check
    (r.fr_arrivals = r.fr_completed + r.fr_failed + r.fr_admission_shed)
    (Printf.sprintf "arrivals %d <> completed %d + failed %d + shed %d"
       r.fr_arrivals r.fr_completed r.fr_failed r.fr_admission_shed)
    problems

let fleet_sim (r : Fleet.report) =
  let p h q = Fleet.percentile_us r h q in
  [
    ("service.sim_p50_us", p r.fr_total 50.0);
    ("service.sim_p99_us", p r.fr_total 99.0);
    ("service.sim_slo_frac", frac r.fr_slo_good r.fr_slo_total);
    ("service.queue_p99_us", p r.fr_queue 99.0);
    ("service.service_p99_us", p r.fr_service 99.0);
    ("service.utilization", r.fr_utilization);
    ("service.retries_per_op", frac r.fr_retries r.fr_arrivals);
    ("service.nacks_per_op", frac r.fr_nacks r.fr_arrivals);
  ]

(* Host time per conservative window: the barrier's cost. *)
let per_window_us dt (r : Fleet.report) =
  1e6 *. dt /. float_of_int (max 1 r.fr_windows)

let fleet_nic =
  let sim_s ~quick = if quick then 0.1 else 0.3 in
  {
    name = "fleet-nic";
    op = "request";
    why =
      "The serve path fed by NIC rings and the hybrid RX driver, cut into \
       15 us conservative windows; run on 2 domains and on 1, so the \
       per-window barrier cost shows.";
    size =
      (fun ~quick ->
        Printf.sprintf
          "Fleet.run on knl:4 + srv:2 with NIC (hybrid RX, ITR 0), po2, \
           gossip 50 us, link 15 us, 20 us bodies, Poisson 200k rps x %g s \
           simulated, SLO 100 us; once on 2 domains, once on 1"
          (sim_s ~quick));
    run =
      (fun ctx ->
        let cfg =
          {
            (Fleet.default ()) with
            fc_machines = two_machines ();
            fc_workload =
              Workload.Poisson
                { rps = 200_000.0; duration_us = sim_s ~quick:ctx.quick *. 1e6 };
            fc_slo_us = 100.0;
            fc_nic = true;
            fc_nic_mode = Iw_kernel.Nic_driver.Hybrid;
            fc_itr_us = 0.0;
            fc_seed = component_seed ctx.seed;
          }
        in
        let run parallel =
          Probe.call ~layer:"service"
            ~name:(if parallel then "Fleet.run parallel" else "Fleet.run serial")
            (fun () -> Fleet.run ~parallel cfg)
        in
        (* Alternate which mode runs first, so that neither always
           pays the process's cold caches. *)
        let ((par, par_s, _), (ser, ser_s, _)), ctrs =
          counted (fun () ->
              if ctx.rep mod 2 = 0 then
                let p = run true in
                (p, run false)
              else
                let s = run false in
                (run true, s))
        in
        let ops = par.fr_arrivals + ser.fr_arrivals in
        let lost (r : Fleet.report) = r.fr_failed + r.fr_admission_shed in
        {
          ops;
          failed = lost par + lost ser;
          problems =
            []
            |> conserves par |> conserves ser
            |> check (digest par = digest ser)
                 "parallel report differs from serial";
          digest = digest ser;
          sim =
            fleet_sim ser
            @ [
                ("hw.nic_irqs_per_frame", frac ser.fr_nic_irqs ser.fr_nic_rx);
                ( "hw.nic_empty_poll_frac",
                  frac ser.fr_nic_empty_polls ser.fr_nic_polls );
              ]
            @ switches ctrs ~ops;
          host =
            [
              ("service.fleet_par_s", par_s);
              ("service.fleet_ser_s", ser_s);
              ("service.window_par_us", per_window_us par_s par);
              ("service.window_ser_us", per_window_us ser_s ser);
              ("service.fleet_speedup", ser_s /. par_s);
            ];
        });
  }

(* ------------------------------------------------------------------ *)

let chaos_fleet =
  let sim_s ~quick = if quick then 0.3 else 1.5 in
  {
    name = "chaos-fleet";
    op = "request";
    why =
      "The same two machines without a NIC under corruption, brownouts and \
       link drops, heavy-tailed demand and hedging: the service layer's \
       recovery paths, on one domain.";
    size =
      (fun ~quick ->
        Printf.sprintf
          "Fleet.run serial on knl:4 + srv:2, faults 3e-5 (req-corrupt, \
           machine-brownout, link-drop), demand pareto:1.5:10:2000, hedge at \
           0.5 x 1000 us deadline, SLO 1000 us, Poisson 120k rps x %g s \
           simulated"
          (sim_s ~quick));
    run =
      (fun ctx ->
        let seed = component_seed ctx.seed in
        let cfg =
          {
            (Fleet.default ()) with
            fc_machines = two_machines ();
            fc_workload =
              Workload.Poisson
                { rps = 120_000.0; duration_us = sim_s ~quick:ctx.quick *. 1e6 };
            fc_demand =
              Workload.Dpareto { alpha = 1.5; xmin_us = 10.0; xmax_us = 2000.0 };
            fc_hedge_frac = 0.5;
            fc_deadline_us = 1000.0;
            fc_slo_us = 1000.0;
            fc_seed = seed;
          }
        in
        (* Worker hangs stay out: one in four is permanent, and a
           permanent hang on the 2-worker machine multiplies the work
           of the run for some seeds only. *)
        let plan =
          Iw_faults.Plan.create ~rate:3e-5 ~seed
            ~kinds:Iw_faults.Plan.[ Req_corrupt; Machine_brownout; Link_drop ]
            ()
        in
        let (r, dt, _), ctrs =
          counted (fun () ->
              Iw_faults.Plan.with_ambient plan (fun () ->
                  Probe.call ~layer:"service" ~name:"Fleet.run serial"
                    (fun () -> Fleet.run ~parallel:false cfg)))
        in
        let ops = r.fr_arrivals in
        {
          ops;
          failed = r.fr_failed + r.fr_admission_shed;
          problems = conserves r [];
          digest = digest r;
          sim =
            fleet_sim r
            @ [
                ("service.hedge_win_frac", frac r.fr_hedge_wins r.fr_hedges);
                ( "faults.injected",
                  float_of_int (Iw_faults.Plan.injected plan) );
              ]
            @ switches ctrs ~ops;
          host =
            [
              ("service.fleet_ser_s", dt);
              ("service.window_ser_us", per_window_us dt r);
            ];
        });
  }

(* ------------------------------------------------------------------ *)

(* The runtime each reproduced experiment exercises. *)
let runtime_layers =
  [
    ("heartbeat", [ "E1"; "A5"; "R1" ]);
    ("omp", [ "E4"; "E5"; "E10"; "E13"; "A3"; "R3" ]);
    ("carat", [ "E7"; "A1"; "E15" ]);
    ("virtine", [ "E8"; "R2" ]);
    ("passes", [ "E3"; "E11"; "E12"; "A2" ]);
    ("hw", [ "E9" ]);
    ("coherence", [ "E14" ]);
  ]

(* Quick mode keeps the cheapest experiment of each runtime. *)
let quick_ids = [ "R1"; "A3"; "E7"; "E8"; "E11"; "E9"; "E14" ]

(* One experiment's run inside a repetition. *)
type exp_run = {
  layer : string;
  id : string;
  out : string;  (** rendered tables *)
  counters : (string * int) list;
  dt : float;
  dw : float;
}

let runtimes_repro =
  let ids ~quick =
    if quick then quick_ids else List.concat_map snd runtime_layers
  in
  {
    name = "runtimes-repro";
    op = "experiment";
    why =
      "The paper reproduction users regenerate: TPAL heartbeat, OpenMP, \
       CARAT, virtines, IR passes and the coroutine scheduler; no \
       coherence replay, no service plane.";
    size =
      (fun ~quick ->
        Printf.sprintf "Experiments.run_with_counters over %s, serially"
          (String.concat " " (ids ~quick)));
    run =
      (fun ctx ->
        let experiment id = Interweave.Experiments.find id in
        let runs =
          List.map
            (fun id ->
              let layer, _ =
                List.find (fun (_, ids) -> List.mem id ids) runtime_layers
              in
              let (out, counters, _), dt, dw =
                Probe.call ~layer:("runtimes." ^ layer)
                  ~name:("Experiments.run_with_counters " ^ id)
                  (fun () ->
                    Interweave.Experiments.run_with_counters (experiment id))
              in
              { layer; id; out; counters; dt; dw })
            (ids ~quick:ctx.quick)
        in
        (* Counter totals at seed 0 must match the committed golden
           snapshots, within their per-counter tolerances. *)
        let golden_problems =
          if ctx.seed <> 0 then []
          else
            List.concat_map
              (fun r ->
                let path = Filename.concat ctx.golden (r.id ^ ".txt") in
                match Iw_obs.Golden.read_file path with
                | exception (Sys_error _ | Invalid_argument _) ->
                    [ Printf.sprintf "%s: cannot read %s" r.id path ]
                | expected ->
                    List.map
                      (fun d -> r.id ^ ": " ^ Iw_obs.Golden.render_drift d)
                      (Iw_obs.Golden.compare_counters
                         ~tolerances:Iw_obs.Golden.default_tolerances ~expected
                         r.counters))
              runs
        in
        let total f rs = List.fold_left (fun a r -> a +. f r) 0.0 rs in
        (* The traced repetition also runs every experiment with the
           trace ring on: the cost of tracing, and proof that tracing
           leaves the output byte-identical. *)
        let ring_problems, ring =
          if not !Probe.traced then ([], [])
          else
            let traced =
              List.map
                (fun r ->
                  let (out, _, _), dt, _ =
                    Probe.span ~layer:"obs"
                      ~name:("Experiments.run_with_counters ~trace:ring " ^ r.id)
                      (fun () ->
                        Interweave.Experiments.run_with_counters
                          ~trace:(Iw_obs.Trace.ring ()) (experiment r.id))
                  in
                  (r, out, dt))
                runs
            in
            ( List.filter_map
                (fun (r, out, _) ->
                  if out = r.out then None
                  else Some (r.id ^ ": output changes with tracing on"))
                traced,
              [
                ( "obs.ring_trace_ratio",
                  List.fold_left (fun a (_, _, dt) -> a +. dt) 0.0 traced
                  /. total (fun r -> r.dt) runs );
              ] )
        in
        let per_layer =
          List.concat_map
            (fun (layer, _) ->
              let mine = List.filter (fun r -> r.layer = layer) runs in
              [
                ( Printf.sprintf "runtimes.%s.host_s" layer,
                  total (fun r -> r.dt) mine );
                ( Printf.sprintf "runtimes.%s.minor_words" layer,
                  total (fun r -> r.dw) mine );
              ])
            runtime_layers
        in
        {
          ops = List.length runs;
          failed = 0;
          problems = golden_problems @ ring_problems;
          digest = digest (List.map (fun r -> (r.id, r.out, r.counters)) runs);
          sim = [];
          host = per_layer @ ring;
        });
  }

let all = [ coherence_pbbs; serve; fleet_nic; chaos_fleet; runtimes_repro ]

let find name = List.find_opt (fun w -> w.name = name) all
