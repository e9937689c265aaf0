let boot ?seed ?quantum_us plat =
  Iw_kernel.Sched.boot ?seed ?quantum_us
    ~personality:(Iw_kernel.Os.linux plat) plat

let address_space plat =
  Iw_mem.Address_space.create plat Iw_mem.Address_space.Demand_paged
