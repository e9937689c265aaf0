open Iw_hw
open Iw_kernel

type region_spec = {
  rs_iters : int;
  rs_cycles : int;
  rs_sched : Runtime.schedule;
}

type benchmark = {
  nas_name : string;
  steps : int;
  step_regions : region_spec list;
  footprint_kb : int;
  locality : float;
  accesses_per_iter : int;
}

(* Block-tridiagonal: three directional solves dominate, flanked by
   RHS computation and the add update. *)
let bt =
  {
    nas_name = "bt";
    steps = 8;
    step_regions =
      [
        { rs_iters = 32_768; rs_cycles = 160; rs_sched = Runtime.Static };
        { rs_iters = 24_576; rs_cycles = 200; rs_sched = Runtime.Static };
        { rs_iters = 24_576; rs_cycles = 200; rs_sched = Runtime.Static };
        { rs_iters = 24_576; rs_cycles = 200; rs_sched = Runtime.Static };
        { rs_iters = 32_768; rs_cycles = 60; rs_sched = Runtime.Static };
      ];
    footprint_kb = 300 * 1024;
    locality = 0.92;
    accesses_per_iter = 3;
  }

(* Scalar-pentadiagonal: lighter per-iteration work, more regions per
   step, more memory-bound. *)
let sp =
  {
    nas_name = "sp";
    steps = 10;
    step_regions =
      [
        { rs_iters = 40_960; rs_cycles = 80; rs_sched = Runtime.Static };
        { rs_iters = 32_768; rs_cycles = 110; rs_sched = Runtime.Static };
        { rs_iters = 32_768; rs_cycles = 110; rs_sched = Runtime.Static };
        { rs_iters = 32_768; rs_cycles = 110; rs_sched = Runtime.Static };
        { rs_iters = 40_960; rs_cycles = 40; rs_sched = Runtime.Static };
        { rs_iters = 40_960; rs_cycles = 40; rs_sched = Runtime.Static };
      ];
    footprint_kb = 220 * 1024;
    locality = 0.95;
    accesses_per_iter = 4;
  }

(* Conjugate gradient: dominated by one sparse matvec with irregular
   row cost — dynamic scheduling territory. *)
let cg =
  {
    nas_name = "cg";
    steps = 12;
    step_regions =
      [
        { rs_iters = 65_536; rs_cycles = 90; rs_sched = Runtime.Dynamic 512 };
        { rs_iters = 65_536; rs_cycles = 20; rs_sched = Runtime.Static };
      ];
    footprint_kb = 150 * 1024;
    locality = 0.94;
    accesses_per_iter = 4;
  }

(* Embarrassingly parallel: one fat compute region, tiny footprint. *)
let ep =
  {
    nas_name = "ep";
    steps = 4;
    step_regions =
      [ { rs_iters = 16_384; rs_cycles = 1_200; rs_sched = Runtime.Static } ];
    footprint_kb = 4 * 1024;
    locality = 0.99;
    accesses_per_iter = 1;
  }

let total_iters b =
  b.steps * List.fold_left (fun acc r -> acc + r.rs_iters) 0 b.step_regions

let memory_penalty_per_iter plat mode b =
  match mode with
  | Runtime.Rtk | Runtime.Pik | Runtime.Cck -> 0
  | Runtime.Linux_user ->
      let tlb = Tlb.create plat ~page_kb:plat.Platform.page_size_kb in
      let accesses = total_iters b * b.accesses_per_iter in
      let profile =
        { Tlb.footprint_kb = b.footprint_kb; accesses; locality = b.locality }
      in
      let walk_cycles = Tlb.misses tlb profile * plat.Platform.costs.tlb_miss_walk in
      walk_cycles / max 1 (total_iters b)

let serial_cycles plat mode b =
  let penalty = memory_penalty_per_iter plat mode b in
  b.steps
  * List.fold_left
      (fun acc r -> acc + (r.rs_iters * (r.rs_cycles + penalty)))
      0 b.step_regions

type result = {
  bench : string;
  mode : Runtime.mode;
  nthreads : int;
  elapsed_cycles : int;
  speedup_vs_serial : float;
}

let run plat mode ~nthreads b =
  let plat = Platform.with_cores plat nthreads in
  let k = Sched.boot ~personality:(Runtime.personality_of_mode mode plat) plat in
  let penalty = memory_penalty_per_iter plat mode b in
  let finish = ref 0 in
  ignore
    (Sched.spawn k
       ~spec:
         {
           Sched.sp_name = "omp-master";
           sp_cpu = Some 0;
           sp_fp = true;
           sp_rt = false;
         }
       (fun () ->
         let t = Runtime.create k mode ~nthreads in
         for _ = 1 to b.steps do
           List.iter
             (fun rs ->
               Runtime.parallel_for t ~schedule:rs.rs_sched ~iters:rs.rs_iters
                 ~iter_cycles:(fun _ -> rs.rs_cycles + penalty)
                 ())
             b.step_regions
         done;
         finish := Api.now ();
         Runtime.shutdown t));
  Sched.run k;
  let serial = serial_cycles plat mode b in
  {
    bench = b.nas_name;
    mode;
    nthreads;
    elapsed_cycles = !finish;
    speedup_vs_serial = float_of_int serial /. float_of_int (max 1 !finish);
  }

let relative_performance plat ~modes ~scales b =
  let linux_times =
    List.map
      (fun n -> (n, (run plat Runtime.Linux_user ~nthreads:n b).elapsed_cycles))
      scales
  in
  List.map
    (fun mode ->
      let series =
        List.map
          (fun n ->
            let r = run plat mode ~nthreads:n b in
            let lx = List.assoc n linux_times in
            (n, float_of_int lx /. float_of_int (max 1 r.elapsed_cycles)))
          scales
      in
      (mode, series))
    modes
