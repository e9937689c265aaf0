let boot ?seed ?quantum_us plat =
  Iw_kernel.Sched.boot ?seed ?quantum_us
    ~personality:(Iw_kernel.Os.linux plat) plat
