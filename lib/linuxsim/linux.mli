(** The commodity-stack baseline.

    Boots the shared scheduler engine with the Linux personality:
    kernel/user crossings with speculation mitigations on switches and
    blocking operations, futex-based block/wake, CFS-weight picks.
    The paper's comparisons (Figs. 3, 4, 6; §III, §IV-B) all measure
    against this stack. *)

val boot :
  ?seed:int -> ?quantum_us:float -> Iw_hw.Platform.t -> Iw_kernel.Sched.t
