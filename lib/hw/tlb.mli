(** A TLB reach model.

    Nautilus identity-maps all of memory with the largest page size at
    boot: if the TLB's reach covers the physical address space, there
    are no misses after startup, and no page faults ever (§III).
    Demand-paged stacks take a miss whenever a touched page falls
    outside the hot set the TLB can hold, and a fault on first touch.

    The model is analytic over an access profile rather than
    trace-driven: workloads report (footprint, accesses, locality) and
    the TLB answers with miss/fault counts and cycle cost.  This is
    the granularity at which the paper's §I "example limitation"
    argument operates. *)

type t

type profile = {
  footprint_kb : int;  (** Distinct memory touched. *)
  accesses : int;  (** Total memory accesses. *)
  locality : float;
      (** Fraction of accesses to the hot subset that fits the TLB
          (0.0 = uniform sweep, 1.0 = perfectly resident). *)
}

val create : Platform.t -> page_kb:int -> t
(** A TLB of [Platform.tlb_entries] entries mapping [page_kb] pages. *)

val misses : t -> profile -> int
(** Expected TLB misses for the profile: zero when the footprint fits
    the reach; otherwise non-hot accesses miss in proportion to the
    uncovered footprint fraction. *)

val first_touch_faults : t -> profile -> int
(** Demand-paging minor faults: one per resident page on first touch
    (zero under identity mapping — query the identity config). *)

val access_overhead_cycles :
  ?obs:Iw_obs.Obs.t -> t -> Platform.t -> profile -> demand_paged:bool -> int
(** Total extra cycles the memory system charges this profile:
    miss walks, plus fault service when [demand_paged].  Miss/fault
    counts are added to [obs] (default: the ambient context). *)
