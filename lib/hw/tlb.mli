(** A TLB reach model.

    Nautilus identity-maps all of memory with the largest page size at
    boot: if the TLB's reach covers the physical address space, there
    are no misses after startup (§III).  Demand-paged stacks take a
    miss whenever a touched page falls outside the hot set the TLB can
    hold.

    The model is analytic over an access profile rather than
    trace-driven: workloads report (footprint, accesses, locality) and
    the TLB answers with a miss count, which the NAS kernels of E4/E5
    charge one page walk each.  This is the granularity at which the
    paper's §I "example limitation" argument operates. *)

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
