(** Address-space configurations and their memory-system overheads.

    Contrasts the two virtual-memory regimes the paper discusses:

    - [Identity_large]: Nautilus's single identity-mapped space with
      the largest page size — everything mapped at boot, no faults,
      TLB reach usually covers physical memory (§III, §IV-A).
    - [Demand_paged]: the commodity regime — base pages, first-touch
      faults, TLB pressure proportional to footprint.
    - [Carat_guarded]: CARAT's regime — physical addressing like
      [Identity_large], plus software guards whose cost is computed by
      the CARAT pass (reported separately; see {!Iw_carat}). *)

type regime = Identity_large | Demand_paged | Carat_guarded

type t

val create : Iw_hw.Platform.t -> regime -> t

val regime : t -> regime

val overhead_cycles : t -> Iw_hw.Tlb.profile -> int
(** Memory-system overhead (TLB walks + faults) charged to a workload
    with this access profile.  [Carat_guarded] reports zero here: its
    cost is software guards, accounted by the compiler pass. *)

val page_faults : t -> Iw_hw.Tlb.profile -> int
