open Iw_hw

let boot ?seed ?quantum_us plat =
  Sched.boot ?seed ?quantum_us ~personality:(Os.nautilus plat) plat

module Nemo = struct
  let signal k ~target_cpu ~handler =
    let plat = Sched.platform k in
    Ipi.send (Sched.sim k) plat ~target:(Sched.cpu k target_cpu)
      ~handler:(fun ~preempted ->
        if preempted >= 0 then Sched.stash_preempted k target_cpu preempted;
        handler ();
        80)
      ~after:(fun () -> Sched.resched_or_resume k target_cpu)
end
