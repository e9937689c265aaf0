open Iw_hw
open Iw_kernel

type construct = Parallel_region | Barrier_only | Dynamic_for | Static_for

let construct_name = function
  | Parallel_region -> "parallel"
  | Barrier_only -> "barrier"
  | Dynamic_for -> "for-dynamic"
  | Static_for -> "for-static"

type row = {
  construct : construct;
  mode : Runtime.mode;
  nthreads : int;
  overhead_cycles_per_construct : float;
}

(* EPCC's delay(): a fixed chunk of work per thread per repetition. *)
let delay_cycles = 20_000
let reps = 50

let measure plat mode ~nthreads construct =
  let plat = Platform.with_cores plat nthreads in
  let k = Sched.boot ~personality:(Runtime.personality_of_mode mode plat) plat in
  let finish = ref 0 in
  ignore
    (Sched.spawn k
       ~spec:
         {
           Sched.sp_name = "epcc";
           sp_cpu = Some 0;
           sp_fp = false;
           sp_rt = false;
         }
       (fun () ->
         let t = Runtime.create k mode ~nthreads in
         let t0 = Api.now () in
         for _ = 1 to reps do
           match construct with
           | Parallel_region | Barrier_only ->
               (* One region whose share is the delay on every thread:
                  measures fork + join + barrier. *)
               Runtime.parallel_for t ~schedule:Runtime.Static
                 ~iters:nthreads
                 ~iter_cycles:(fun _ -> delay_cycles)
                 ()
           | Static_for ->
               Runtime.parallel_for t ~schedule:Runtime.Static
                 ~iters:(nthreads * 16)
                 ~iter_cycles:(fun _ -> delay_cycles / 16)
                 ()
           | Dynamic_for ->
               Runtime.parallel_for t ~schedule:(Runtime.Dynamic 1)
                 ~iters:(nthreads * 16)
                 ~iter_cycles:(fun _ -> delay_cycles / 16)
                 ()
         done;
         finish := Api.now () - t0;
         Runtime.shutdown t));
  Sched.run k;
  let ideal = reps * delay_cycles in
  {
    construct;
    mode;
    nthreads;
    overhead_cycles_per_construct =
      float_of_int (!finish - ideal) /. float_of_int reps;
  }

let table plat ~modes ~nthreads =
  List.concat_map
    (fun construct ->
      List.map
        (fun mode -> measure plat mode ~nthreads construct)
        modes)
    [ Parallel_region; Barrier_only; Dynamic_for; Static_for ]
