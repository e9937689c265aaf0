open Iw_hw

module Nemo = struct
  let signal k ~target_cpu ~handler =
    let plat = Sched.platform k in
    Ipi.send
      (Ipi.delivery (Sched.sim k) plat ~target:(Sched.cpu k target_cpu)
         ~handler:(fun ~preempted ->
           if preempted >= 0 then Sched.stash_preempted k target_cpu preempted;
           handler ();
           80)
         ~after:(fun () -> Sched.resched_or_resume k target_cpu))
end
