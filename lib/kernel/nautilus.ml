open Iw_hw

module Nemo = struct
  let signal k ~target_cpu ~handler =
    Ipi.send
      (Ipi.delivery (Sched.sim k) (Sched.platform k)
         ~target:(Sched.cpu k target_cpu)
         ~handler:(fun ~preempted:_ ->
           handler ();
           80)
         ~after:(Sched.resched_or_resume k target_cpu))
end
