(* Tests for the cache, the MESI+directory protocol, selective
   deactivation, and the PBBS trace study. *)

open Iw_coherence

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let params = Machine.default_params ~cores:4 ~cores_per_socket:2

(* ------------------------------------------------------------------ *)
(* Cache *)

let test_cache_miss_then_hit () =
  let c = Cache.create ~size_kb:4 ~ways:2 ~line_bytes:64 in
  check_bool "cold miss" true (Cache.lookup c 0x1000 = Cache.Invalid);
  ignore (Cache.install c 0x1000 Cache.Exclusive);
  check_bool "hit" true (Cache.lookup c 0x1000 = Cache.Exclusive);
  (* Same line, different byte. *)
  check_bool "same line hit" true (Cache.lookup c 0x103f = Cache.Exclusive);
  check_bool "next line miss" true (Cache.lookup c 0x1040 = Cache.Invalid)

let test_cache_lru_eviction () =
  (* 2 ways per set: the third distinct line mapping to one set evicts
     the least recently used. *)
  let c = Cache.create ~size_kb:4 ~ways:2 ~line_bytes:64 in
  let sets = 4 * 1024 / 64 / 2 in
  let stride = sets * 64 in
  let a = 0 and b = stride and d = 2 * stride in
  ignore (Cache.install c a Cache.Exclusive);
  ignore (Cache.install c b Cache.Exclusive);
  ignore (Cache.lookup c a);
  (* a is now MRU; installing d evicts b *)
  let evicted = Cache.install c d Cache.Exclusive in
  check_bool "an eviction" true (evicted >= 0);
  check_int "b evicted" (b / 64) (Cache.evicted_line evicted);
  check_bool "as Exclusive" true (Cache.evicted_state evicted = Cache.Exclusive);
  check_bool "a survives" true (Cache.resident c a);
  check_bool "b gone" true (not (Cache.resident c b))

let test_cache_invalidate () =
  let c = Cache.create ~size_kb:4 ~ways:2 ~line_bytes:64 in
  ignore (Cache.install c 0x40 Cache.Modified);
  Cache.invalidate c 0x40;
  check_bool "gone" true (Cache.lookup c 0x40 = Cache.Invalid)

(* ------------------------------------------------------------------ *)
(* Protocol *)

let test_read_then_hit_costs () =
  let m = Machine.create ~params Machine.Off in
  Machine.access m ~core:0 ~addr:0x1000 ~write:false ~hint:Machine.Shared_data;
  let after_miss = Machine.core_cycles m 0 in
  Machine.access m ~core:0 ~addr:0x1000 ~write:false ~hint:Machine.Shared_data;
  let after_hit = Machine.core_cycles m 0 in
  check_bool "miss costs more than hit" true
    (after_miss > 10 * (after_hit - after_miss));
  check_int "hit costs l1_hit" params.l1_hit (after_hit - after_miss)

let test_write_invalidates_sharers () =
  let m = Machine.create ~params Machine.Off in
  let addr = 0x2000 in
  (* Two readers share the line. *)
  Machine.access m ~core:0 ~addr ~write:false ~hint:Machine.Shared_data;
  Machine.access m ~core:1 ~addr ~write:false ~hint:Machine.Shared_data;
  let before = (Machine.counters m).invalidations in
  (* A third core writes: both sharers must be invalidated. *)
  Machine.access m ~core:2 ~addr ~write:true ~hint:Machine.Shared_data;
  let after = (Machine.counters m).invalidations in
  check_bool "invalidations sent" true (after - before >= 2);
  (* Reader 0 now misses again. *)
  let c0_before = (Machine.counters m).misses in
  Machine.access m ~core:0 ~addr ~write:false ~hint:Machine.Shared_data;
  check_int "re-miss after invalidation" (c0_before + 1)
    (Machine.counters m).misses

let test_modified_data_forwarded () =
  let m = Machine.create ~params Machine.Off in
  let addr = 0x3000 in
  Machine.access m ~core:0 ~addr ~write:true ~hint:Machine.Shared_data;
  let wb_before = (Machine.counters m).writebacks in
  (* Another core reads: the dirty owner must supply + write back. *)
  Machine.access m ~core:1 ~addr ~write:false ~hint:Machine.Shared_data;
  check_int "writeback of modified data" (wb_before + 1)
    (Machine.counters m).writebacks

let test_private_hint_skips_directory () =
  let m = Machine.create ~params Machine.Private_only in
  let before = (Machine.counters m).dir_requests in
  for i = 0 to 63 do
    Machine.access m ~core:0 ~addr:(0x4000 + (i * 64)) ~write:true
      ~hint:(Machine.Private_to 0)
  done;
  check_int "no directory traffic" before (Machine.counters m).dir_requests;
  check_int "no invalidations" 0 (Machine.counters m).invalidations

let test_private_hint_not_honored_when_off () =
  let m = Machine.create ~params Machine.Off in
  Machine.access m ~core:0 ~addr:0x4000 ~write:true ~hint:(Machine.Private_to 0);
  check_bool "still tracked" true ((Machine.counters m).dir_requests > 0)

let test_ro_write_rejected () =
  let m = Machine.create ~params Machine.Private_and_ro in
  check_bool "raises" true
    (try
       Machine.access m ~core:0 ~addr:0x5000 ~write:true ~hint:Machine.Read_only;
       false
     with Invalid_argument _ -> true)

let test_ping_pong_costs () =
  (* Two cores alternately writing one line: the classic coherence
     pathology the paper calls out.  Tracked MESI pays transfers every
     time; each write is far more expensive than a private write. *)
  let m = Machine.create ~params Machine.Off in
  let addr = 0x6000 in
  for _ = 1 to 20 do
    Machine.access m ~core:0 ~addr ~write:true ~hint:Machine.Shared_data;
    Machine.access m ~core:3 ~addr ~write:true ~hint:Machine.Shared_data
  done;
  let shared_cost = Machine.core_cycles m 0 + Machine.core_cycles m 3 in
  let m2 = Machine.create ~params Machine.Private_and_ro in
  for _ = 1 to 20 do
    Machine.access m2 ~core:0 ~addr:0x7000 ~write:true ~hint:(Machine.Private_to 0);
    Machine.access m2 ~core:3 ~addr:0x8000 ~write:true ~hint:(Machine.Private_to 3)
  done;
  let private_cost = Machine.core_cycles m2 0 + Machine.core_cycles m2 3 in
  check_bool
    (Printf.sprintf "ping-pong %d >> private %d" shared_cost private_cost)
    true
    (shared_cost > 5 * private_cost)

let test_energy_only_on_interconnect () =
  let m = Machine.create ~params Machine.Private_and_ro in
  (* Local private hits and local fetches cross no interconnect. *)
  for i = 0 to 31 do
    Machine.access m ~core:0 ~addr:(0x9000 + (i * 64)) ~write:false
      ~hint:(Machine.Private_to 0)
  done;
  Alcotest.(check (float 1e-9)) "zero energy" 0.0 (Machine.interconnect_energy m)

(* ------------------------------------------------------------------ *)
(* Invariants *)

let test_swmr_after_trace () =
  List.iter
    (fun deact ->
      let bench = { Traces.bfs with Traces.accesses_per_core = 2_000 } in
      let m = Traces.run_bench ~params deact bench in
      check_bool "swmr holds" true (Machine.swmr_holds m))
    [ Machine.Off; Machine.Private_and_ro ]

let prop_swmr_random_accesses =
  QCheck.Test.make ~name:"SWMR holds under random tracked accesses" ~count:40
    QCheck.(pair (int_bound 1000) (int_bound 3))
    (fun (seed, extra) ->
      let m = Machine.create ~params Machine.Off in
      let rng = Iw_engine.Rng.create ~seed:(seed + extra) in
      for _ = 1 to 400 do
        let core = Iw_engine.Rng.int rng params.Machine.cores in
        let addr = 0x1000 + (64 * Iw_engine.Rng.int rng 32) in
        let write = Iw_engine.Rng.bool rng in
        Machine.access m ~core ~addr ~write ~hint:Machine.Shared_data
      done;
      Machine.swmr_holds m)

(* ------------------------------------------------------------------ *)
(* Differential oracle: the bitmask machine against the list-directory
   reference model in coherence_ref.ml *)

type oracle_case = {
  o_cores : int;  (** 8 (2x4) or 24 (2x12) *)
  o_deact : Machine.deactivation;
  o_ways : int;  (** of a 2 KB cache: 32 lines, so evictions are common *)
  o_rate : float;  (** Dir_drop_ack, Dir_stale and Tlb_shootdown *)
  o_seed : int;  (** the access stream's and the fault plan's *)
}

let deact_name = function
  | Machine.Off -> "Off"
  | Machine.Private_only -> "Private_only"
  | Machine.Private_and_ro -> "Private_and_ro"

let oracle_case =
  QCheck.make
    ~print:(fun c ->
      Printf.sprintf "%d cores, %s, %d ways, fault rate %g, seed %d" c.o_cores
        (deact_name c.o_deact) c.o_ways c.o_rate c.o_seed)
    QCheck.Gen.(
      let+ o_cores = oneofl [ 8; 24 ]
      and+ o_deact = oneofl Machine.[ Off; Private_only; Private_and_ro ]
      and+ o_ways = oneofl [ 1; 2; 4 ]
      and+ o_rate =
        frequency [ (1, return 0.0); (3, float_bound_inclusive 0.2) ]
      and+ o_seed = int_bound 1_000_000 in
      { o_cores; o_deact; o_ways; o_rate; o_seed })

(* Random cores, hints, writes and addresses.  Each hint has its own
   small region (per core for private data) so lines are contended and
   evicted; under deactivation read-only data is never written. *)
let oracle_accesses c =
  let rng = Iw_engine.Rng.create ~seed:c.o_seed in
  Array.init 3_000 (fun _ ->
      let core = Iw_engine.Rng.int rng c.o_cores in
      let hint, base, lines =
        match Iw_engine.Rng.int rng 3 with
        | 0 -> (Machine.Private_to core, (core + 1) lsl 30, 48)
        | 1 -> (Machine.Read_only, 1 lsl 28, 32)
        | _ -> (Machine.Shared_data, 1 lsl 27, 16)
      in
      let addr =
        base + (64 * Iw_engine.Rng.int rng lines) + Iw_engine.Rng.int rng 64
      in
      let write =
        Iw_engine.Rng.bool rng
        && not (hint = Machine.Read_only && c.o_deact <> Machine.Off)
      in
      (core, addr, write, hint))

(* One replay under a fresh plan seeded from the case, so both models
   see the same fault schedule. *)
let under_plan c f =
  let plan =
    Iw_faults.Plan.create
      ~kinds:Iw_faults.Plan.[ Dir_drop_ack; Dir_stale; Tlb_shootdown ]
      ~rate:c.o_rate ~seed:c.o_seed ()
  in
  Iw_faults.Plan.with_ambient plan f

(* Everything a run exposes, energy bit for bit. *)
let outcome ~cores ~counters ~cycles ~energy ~swmr =
  let c : Machine.counters = counters in
  Printf.sprintf "%d %d %d %d %d %d %d %d %d | %h | swmr %b |%s" c.accesses
    c.hits c.misses c.dir_requests c.invalidations c.data_transfers
    c.writebacks c.ctrl_msgs c.data_msgs energy swmr
    (String.concat "" (List.init cores (fun i -> " " ^ string_of_int (cycles i))))

let prop_matches_reference =
  QCheck.Test.make ~name:"bitmask machine matches the list reference"
    ~count:150 oracle_case (fun c ->
      let params =
        {
          (Machine.default_params ~cores:c.o_cores
             ~cores_per_socket:(c.o_cores / 2))
          with
          cache_kb = 2;
          ways = c.o_ways;
        }
      in
      let accesses = oracle_accesses c in
      let m =
        under_plan c (fun () ->
            let m = Machine.create ~params c.o_deact in
            Array.iter
              (fun (core, addr, write, hint) ->
                Machine.access m ~core ~addr ~write ~hint)
              accesses;
            m)
      in
      let r =
        under_plan c (fun () ->
            let r = Coherence_ref.create ~params c.o_deact in
            Array.iter
              (fun (core, addr, write, hint) ->
                Coherence_ref.access r ~core ~addr ~write ~hint)
              accesses;
            r)
      in
      let got =
        outcome ~cores:c.o_cores ~counters:(Machine.counters m)
          ~cycles:(Machine.core_cycles m)
          ~energy:(Machine.interconnect_energy m) ~swmr:(Machine.swmr_holds m)
      in
      let want =
        outcome ~cores:c.o_cores ~counters:(Coherence_ref.counters r)
          ~cycles:(Coherence_ref.core_cycles r)
          ~energy:(Coherence_ref.interconnect_energy r)
          ~swmr:(Coherence_ref.swmr_holds r)
      in
      if got <> want then
        QCheck.Test.fail_reportf "machine:   %s\nreference: %s" got want;
      (* Every line of an Off machine is tracked, faults or not. *)
      c.o_deact <> Machine.Off || Machine.swmr_holds m)

(* ------------------------------------------------------------------ *)
(* Parameters the model cannot simulate are refused up front *)

let contains s sub =
  let n = String.length s and k = String.length sub in
  let rec at i = i + k <= n && (String.sub s i k = sub || at (i + 1)) in
  at 0

let p24 = Machine.default_params ~cores:24 ~cores_per_socket:12

(* [Machine.create] raises Invalid_argument whose message contains
   [names]. *)
let rejects names params =
  match Machine.create ~params Machine.Off with
  | _ -> Alcotest.failf "accepted; wanted an error naming %S" names
  | exception Invalid_argument msg ->
      check_bool (Printf.sprintf "%S names %S" msg names) true
        (contains msg names)

let test_rejects_cores () =
  rejects "cores = " { p24 with cores = 0 };
  rejects "cores = " { p24 with cores = Machine.max_cores + 1 };
  (* The widest machine the sharer mask holds works, top bit included:
     every core reads a line, then core 0 writes it. *)
  let params = Machine.default_params ~cores:Machine.max_cores ~cores_per_socket:8 in
  let m = Machine.create ~params Machine.Off in
  for core = 0 to Machine.max_cores - 1 do
    Machine.access m ~core ~addr:0x40 ~write:false ~hint:Machine.Shared_data
  done;
  Machine.access m ~core:0 ~addr:0x40 ~write:true ~hint:Machine.Shared_data;
  check_int "every other sharer invalidated" (Machine.max_cores - 1)
    (Machine.counters m).invalidations;
  check_bool "swmr holds" true (Machine.swmr_holds m)

let test_rejects_cores_per_socket () =
  rejects "cores_per_socket = " { p24 with cores_per_socket = 0 };
  rejects "cores_per_socket = " { p24 with cores_per_socket = -1 }

let test_rejects_cache_kb () = rejects "cache_kb" { p24 with cache_kb = 0 }

let test_rejects_ways () = rejects "ways = " { p24 with ways = 0 }

(* ------------------------------------------------------------------ *)
(* Consistency (SecV-B fences) *)

let test_tso_equals_selective_without_unrelated () =
  let run m =
    Consistency.producer_consumer ~iterations:100 ~data_stores:4
      ~unrelated_stores:0 m
  in
  check_int "identical when nothing is unrelated"
    (run Consistency.Tso).total_cycles
    (run Consistency.Selective).total_cycles

(* The ratio E14 tabulates: TSO time over selective time. *)
let test_selective_beats_tso_with_unrelated () =
  let run m =
    Consistency.producer_consumer ~iterations:500 ~data_stores:2
      ~unrelated_stores:32 m
  in
  let sp =
    float_of_int (run Consistency.Tso).total_cycles
    /. float_of_int (run Consistency.Selective).total_cycles
  in
  check_bool (Printf.sprintf "speedup %.2f > 1.1" sp) true (sp > 1.1)

let test_selective_fence_stalls_zero_when_data_drained () =
  let r =
    Consistency.producer_consumer ~iterations:200 ~data_stores:2
      ~unrelated_stores:16 Consistency.Selective
  in
  check_int "no stalls on drained data" 0 r.fence_stalls

let test_more_unrelated_more_tso_stall () =
  let stall u =
    (Consistency.producer_consumer ~iterations:100 ~data_stores:2
       ~unrelated_stores:u Consistency.Tso)
      .fence_stalls
  in
  check_bool "monotone in unrelated stores" true (stall 32 > stall 8)

(* Differential oracle: the store buffer against the list reference in
   consistency_ref.ml, over workloads small and tight enough that the
   buffer fills.  E14's own runs never stall on a full buffer, so the
   test also demands that some cases do. *)

type buffer_case = {
  b_params : Consistency.params;
  b_iterations : int;
  b_data : int;
  b_unrelated : int;
}

let buffer_case =
  QCheck.make
    ~print:(fun c ->
      Printf.sprintf
        "buffer_slots %d, store_drain_cycles %d, data_stores %d, \
         unrelated_stores %d, iterations %d"
        c.b_params.buffer_slots c.b_params.store_drain_cycles c.b_data
        c.b_unrelated c.b_iterations)
    QCheck.Gen.(
      let+ buffer_slots = int_range 1 64
      and+ store_drain_cycles = int_range 1 120
      and+ b_data = int_range 0 16
      and+ b_unrelated = int_range 0 64
      and+ b_iterations = int_range 1 40 in
      {
        b_params = { Consistency.buffer_slots; store_drain_cycles };
        b_iterations;
        b_data;
        b_unrelated;
      })

let buffer_cases = 300
let stalled_cases = ref 0

let show (r : Consistency.result) =
  Printf.sprintf
    "{ iterations %d; total_cycles %d; fence_stalls %d; store_stalls %d }"
    r.iterations r.total_cycles r.fence_stalls r.store_stalls

let prop_store_buffer_matches_reference =
  QCheck.Test.make ~name:"store buffer matches the list reference"
    ~count:buffer_cases buffer_case (fun c ->
      let stalls =
        List.map
          (fun model ->
            let got =
              Consistency.producer_consumer ~params:c.b_params
                ~iterations:c.b_iterations ~data_stores:c.b_data
                ~unrelated_stores:c.b_unrelated model
            in
            let want =
              Consistency_ref.producer_consumer ~params:c.b_params
                ~iterations:c.b_iterations ~data_stores:c.b_data
                ~unrelated_stores:c.b_unrelated model
            in
            if got <> want then
              QCheck.Test.fail_reportf "buffer:    %s\nreference: %s"
                (show got) (show want);
            got.store_stalls)
          [ Consistency.Tso; Consistency.Selective ]
      in
      if List.exists (fun s -> s > 0) stalls then incr stalled_cases;
      true)

let test_store_buffer_matches_reference () =
  stalled_cases := 0;
  QCheck.Test.check_exn prop_store_buffer_matches_reference;
  check_bool
    (Printf.sprintf "%d of %d cases stall on a full buffer" !stalled_cases
       buffer_cases)
    true (!stalled_cases > 0)

(* Each parameter the model cannot simulate is refused by name. *)
let test_consistency_rejects () =
  let run ?(params = { Consistency.store_drain_cycles = 40; buffer_slots = 56 })
      ?(iterations = 10) ?(data = 2) ?(unrelated = 8) () =
    ignore
      (Consistency.producer_consumer ~params ~iterations ~data_stores:data
         ~unrelated_stores:unrelated Consistency.Tso)
  in
  let rejects msg f =
    Alcotest.check_raises msg
      (Invalid_argument ("Consistency.producer_consumer: " ^ msg))
      f
  in
  rejects "iterations must be >= 1" (run ~iterations:0);
  rejects "buffer_slots must be >= 1"
    (run ~params:{ store_drain_cycles = 40; buffer_slots = 0 });
  rejects "store_drain_cycles must be >= 0"
    (run ~params:{ store_drain_cycles = -1; buffer_slots = 56 });
  rejects "data_stores must be >= 0" (run ~data:(-1));
  rejects "unrelated_stores must be >= 0" (run ~unrelated:(-1))

(* ------------------------------------------------------------------ *)
(* MPL-style language runtime (SecV-G) *)

let mpl_machine () =
  Machine.create ~params:(Machine.default_params ~cores:8 ~cores_per_socket:4)
    Machine.Private_and_ro

let test_mpl_par_for_computes () =
  let m = mpl_machine () in
  let total, stats =
    Mpl.run ~machine:m (fun ctx ->
        let acc = Mpl.alloc ctx 8 ~init:0 in
        Mpl.par_for ctx ~lo:0 ~hi:8 ~grain:1 (fun c b ->
            let scratch = Mpl.alloc c 16 ~init:b in
            let s = ref 0 in
            for i = 0 to 15 do
              s := !s + Mpl.read c scratch i
            done;
            Mpl.write c acc b !s);
        let t = ref 0 in
        for b = 0 to 7 do
          t := !t + Mpl.read ctx acc b
        done;
        !t)
  in
  (* sum over b of 16*b = 16*28 *)
  check_int "computed" (16 * 28) total;
  check_bool "accesses recorded" true (stats.Mpl.accesses > 100)

let test_mpl_private_classification () =
  let m = mpl_machine () in
  let (), stats =
    Mpl.run ~machine:m (fun ctx ->
        Mpl.par_for ctx ~lo:0 ~hi:8 ~grain:1 (fun c _ ->
            let scratch = Mpl.alloc c 64 ~init:0 in
            for i = 0 to 63 do
              Mpl.write c scratch i i
            done))
  in
  (* Every access is to task-local fresh data. *)
  check_int "all private" stats.Mpl.accesses stats.Mpl.classified_private;
  check_int "no entanglement" 0 stats.Mpl.entanglements

let test_mpl_frozen_is_ro () =
  let m = mpl_machine () in
  let (), stats =
    Mpl.run ~machine:m (fun ctx ->
        let input = Mpl.alloc ctx 32 ~init:7 in
        Mpl.freeze ctx input;
        Mpl.par_for ctx ~lo:0 ~hi:4 ~grain:1 (fun c _ ->
            for i = 0 to 31 do
              ignore (Mpl.read c input i)
            done))
  in
  check_bool "ro classified" true (stats.Mpl.classified_ro >= 4 * 32)

let test_mpl_write_frozen_rejected () =
  let m = mpl_machine () in
  check_bool "raises" true
    (try
       ignore
         (Mpl.run ~machine:m (fun ctx ->
              let o = Mpl.alloc ctx 4 ~init:0 in
              Mpl.freeze ctx o;
              Mpl.write ctx o 0 1));
       false
     with Invalid_argument _ -> true)

let test_mpl_ancestor_data_shared () =
  let m = mpl_machine () in
  let (), stats =
    Mpl.run ~machine:m (fun ctx ->
        let shared = Mpl.alloc ctx 8 ~init:0 in
        let (), () =
          Mpl.par2 ctx
            (fun c -> Mpl.write c shared 0 1)
            (fun c -> Mpl.write c shared 1 2)
        in
        ())
  in
  check_bool "children's writes to parent data are shared" true
    (stats.Mpl.classified_shared >= 2)

let test_mpl_join_transfers_ownership () =
  let m = mpl_machine () in
  let (), stats =
    Mpl.run ~machine:m (fun ctx ->
        let (o, ()) =
          Mpl.par2 ctx (fun c -> Mpl.alloc c 8 ~init:3) (fun _ -> ())
        in
        (* After the join, the child's object belongs to the parent:
           these accesses are private again. *)
        let before = ref 0 in
        ignore before;
        for i = 0 to 7 do
          ignore (Mpl.read ctx o i)
        done)
  in
  check_int "no entanglement via join" 0 stats.Mpl.entanglements

let test_mpl_hints_speed_up_protocol () =
  let prog ctx =
    let input = Mpl.alloc ctx 4_096 ~init:1 in
    Mpl.freeze ctx input;
    Mpl.par_for ctx ~lo:0 ~hi:8 ~grain:1 (fun c b ->
        let scratch = Mpl.alloc c 512 ~init:0 in
        for i = 0 to 511 do
          Mpl.write c scratch i (Mpl.read c input ((b * 512) + i))
        done)
  in
  let mk deact =
    Machine.create
      ~params:(Machine.default_params ~cores:8 ~cores_per_socket:4)
      deact
  in
  let base = mk Machine.Off in
  ignore (Mpl.run ~machine:base prog);
  let deact = mk Machine.Private_and_ro in
  ignore (Mpl.run ~machine:deact prog);
  check_bool "derived hints speed up the machine" true
    (Machine.makespan deact * 10 < Machine.makespan base * 9)

(* ------------------------------------------------------------------ *)
(* Traces / Fig 7 *)

let small_bench =
  { Traces.samplesort with Traces.accesses_per_core = 3_000 }

let test_traces_deterministic () =
  let a = Traces.run_bench ~seed:5 ~params Machine.Off small_bench in
  let b = Traces.run_bench ~seed:5 ~params Machine.Off small_bench in
  check_int "same makespan" (Machine.makespan a) (Machine.makespan b)

let test_deactivation_helps_every_bench () =
  List.iter
    (fun (bench : Traces.bench) ->
      let bench = { bench with Traces.accesses_per_core = 2_000 } in
      let base = Traces.run_bench ~params Machine.Off bench in
      let deact = Traces.run_bench ~params Machine.Private_and_ro bench in
      check_bool
        (bench.Traces.bench_name ^ " faster")
        true
        (Machine.makespan deact < Machine.makespan base);
      check_bool
        (bench.Traces.bench_name ^ " less energy")
        true
        (Machine.interconnect_energy deact < Machine.interconnect_energy base))
    Traces.pbbs_suite

let test_fig7_shape () =
  let params = Machine.default_params ~cores:8 ~cores_per_socket:4 in
  let rows =
    Traces.fig7 ~params ()
  in
  check_int "eight benches" 8 (List.length rows);
  let avg = Traces.average_speedup rows in
  check_bool
    (Printf.sprintf "average speedup %.2f in (1.2, 2.0)" avg)
    true
    (avg > 1.2 && avg < 2.0);
  let er = Traces.average_energy_reduction rows in
  check_bool
    (Printf.sprintf "energy reduction %.0f%% in (30, 85)" er)
    true
    (er > 30.0 && er < 85.0)

(* Every simulated number the replay produces, pinned: the 8 PBBS
   surrogates x every deactivation mode on the 24-core 2x12 and the
   8-core 2x4 machine.  Each run contributes its makespan, every
   counter, the interconnect energy bit for bit ([%h]) and every
   core's cycles; the literal is the MD5 of that text.  The E6/A4/E16
   goldens pin only directory transitions, so a wrong sharer bit or a
   reordered energy sum shows up here first.  On a mismatch the text
   is printed, so it can be diffed against the parent's. *)
let coherence_fingerprint () =
  let b = Buffer.create 16_384 in
  List.iter
    (fun (cores, cores_per_socket) ->
      let params = Machine.default_params ~cores ~cores_per_socket in
      List.iter
        (fun (bench : Traces.bench) ->
          List.iter
            (fun (dname, deact) ->
              let m =
                Traces.run_bench ~params deact
                  { bench with Traces.accesses_per_core = 1_000 }
              in
              let c = Machine.counters m in
              Printf.bprintf b "%s %s %dc: %d | %d %d %d %d %d %d %d %d %d | %h |"
                bench.Traces.bench_name dname cores (Machine.makespan m)
                c.Machine.accesses c.hits c.misses c.dir_requests
                c.invalidations c.data_transfers c.writebacks c.ctrl_msgs
                c.data_msgs (Machine.interconnect_energy m);
              for core = 0 to cores - 1 do
                Printf.bprintf b " %d" (Machine.core_cycles m core)
              done;
              Buffer.add_char b '\n')
            Machine.
              [
                ("Off", Off);
                ("Private_only", Private_only);
                ("Private_and_ro", Private_and_ro);
              ])
        Traces.pbbs_suite)
    [ (24, 12); (8, 4) ];
  Buffer.contents b

let test_pinned_fingerprint () =
  let text = coherence_fingerprint () in
  let got = Digest.to_hex (Digest.string text) in
  let want = "441b4cbd4ccdeb5e4befcd7a3eaa1cc1" in
  if got <> want then print_string text;
  Alcotest.(check string) "pinned coherence fingerprint" want got

(* The replay's allocation budget, the coherence twin of serve's
   budget in test/smokes.t: a whole [Traces.run_bench] on the 24-core
   machine, setup included, may allocate at most one minor word per
   access.  [Gc.minor_words] counts exactly on the running domain, so
   the gate is host-independent. *)
let test_replay_allocation_budget () =
  let params = Machine.default_params ~cores:24 ~cores_per_socket:12 in
  let bench = { Traces.samplesort with Traces.accesses_per_core = 4_096 } in
  List.iter
    (fun (dname, deact) ->
      let w0 = Gc.minor_words () in
      let m = Traces.run_bench ~params deact bench in
      let words = Gc.minor_words () -. w0 in
      let per_access = words /. float_of_int (Machine.counters m).accesses in
      Printf.printf "%s: %.4f minor words per access\n" dname per_access;
      check_bool
        (Printf.sprintf "%s: %.4f words per access <= 1" dname per_access)
        true (per_access <= 1.0))
    Machine.[ ("Off", Off); ("Private_and_ro", Private_and_ro) ]

let test_hierarchy_private_ro_levels () =
  let bench = { Traces.bfs with Traces.accesses_per_core = 2_000 } in
  let t d = Machine.makespan (Traces.run_bench ~params d bench) in
  let off = t Machine.Off in
  let po = t Machine.Private_only in
  let pro = t Machine.Private_and_ro in
  check_bool "private-only already helps" true (po < off);
  check_bool "adding read-only helps more" true (pro <= po)

let () =
  Alcotest.run "coherence"
    [
      ( "cache",
        [
          Alcotest.test_case "miss then hit" `Quick test_cache_miss_then_hit;
          Alcotest.test_case "lru eviction" `Quick test_cache_lru_eviction;
          Alcotest.test_case "invalidate" `Quick test_cache_invalidate;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "miss/hit costs" `Quick test_read_then_hit_costs;
          Alcotest.test_case "write invalidates sharers" `Quick
            test_write_invalidates_sharers;
          Alcotest.test_case "modified forwarded" `Quick
            test_modified_data_forwarded;
          Alcotest.test_case "private skips directory" `Quick
            test_private_hint_skips_directory;
          Alcotest.test_case "hints ignored when off" `Quick
            test_private_hint_not_honored_when_off;
          Alcotest.test_case "ro write rejected" `Quick test_ro_write_rejected;
          Alcotest.test_case "ping-pong pathology" `Quick test_ping_pong_costs;
          Alcotest.test_case "local = zero energy" `Quick
            test_energy_only_on_interconnect;
        ] );
      ( "invariants",
        [
          Alcotest.test_case "swmr after traces" `Quick test_swmr_after_trace;
          QCheck_alcotest.to_alcotest prop_swmr_random_accesses;
          QCheck_alcotest.to_alcotest prop_matches_reference;
        ] );
      ( "params",
        [
          Alcotest.test_case "cores" `Quick test_rejects_cores;
          Alcotest.test_case "cores_per_socket" `Quick
            test_rejects_cores_per_socket;
          Alcotest.test_case "cache_kb" `Quick test_rejects_cache_kb;
          Alcotest.test_case "ways" `Quick test_rejects_ways;
        ] );
      ( "consistency",
        [
          Alcotest.test_case "tso=selective w/o unrelated" `Quick
            test_tso_equals_selective_without_unrelated;
          Alcotest.test_case "selective wins" `Quick
            test_selective_beats_tso_with_unrelated;
          Alcotest.test_case "zero stall when drained" `Quick
            test_selective_fence_stalls_zero_when_data_drained;
          Alcotest.test_case "monotone stalls" `Quick
            test_more_unrelated_more_tso_stall;
          Alcotest.test_case "store buffer matches the list reference" `Quick
            test_store_buffer_matches_reference;
          Alcotest.test_case "bad parameters named" `Quick
            test_consistency_rejects;
        ] );
      ( "mpl",
        [
          Alcotest.test_case "par_for computes" `Quick
            test_mpl_par_for_computes;
          Alcotest.test_case "private classification" `Quick
            test_mpl_private_classification;
          Alcotest.test_case "frozen is ro" `Quick test_mpl_frozen_is_ro;
          Alcotest.test_case "write frozen rejected" `Quick
            test_mpl_write_frozen_rejected;
          Alcotest.test_case "ancestor data shared" `Quick
            test_mpl_ancestor_data_shared;
          Alcotest.test_case "join transfers ownership" `Quick
            test_mpl_join_transfers_ownership;
          Alcotest.test_case "hints speed up protocol" `Quick
            test_mpl_hints_speed_up_protocol;
        ] );
      ( "fig7",
        [
          Alcotest.test_case "deterministic" `Quick test_traces_deterministic;
          Alcotest.test_case "deactivation helps all" `Slow
            test_deactivation_helps_every_bench;
          Alcotest.test_case "figure shape" `Slow test_fig7_shape;
          Alcotest.test_case "hint levels" `Quick test_hierarchy_private_ro_levels;
          Alcotest.test_case "pinned fingerprint" `Quick test_pinned_fingerprint;
          Alcotest.test_case "allocation budget" `Quick
            test_replay_allocation_budget;
        ] );
    ]
