(** Binary buddy allocator over a simulated physical address range.

    Nautilus performs all memory management with per-zone buddy
    allocators selected by target NUMA zone (§III).  This is a real
    buddy system: power-of-two blocks, split on allocation, coalesce
    with the buddy on free.  Addresses are plain integers into the
    simulated physical space. *)

type t

val create : base:int -> size:int -> min_block:int -> t
(** [create ~base ~size ~min_block] manages [\[base, base+size)].
    [size] and [min_block] must be powers of two with
    [min_block <= size], and [base] must be aligned to [size].
    @raise Invalid_argument otherwise. *)

val alloc : t -> int -> int option
(** [alloc t n] returns the base address of a block of at least [n]
    bytes (rounded up to a power of two >= min_block), or [None] when
    no block is available. *)

val free : t -> int -> unit
(** Free a previously allocated block by its base address.
    @raise Invalid_argument on a bad or double free. *)

val block_size : t -> int -> int
(** Size of the live allocation at this base address.
    @raise Invalid_argument if not live. *)

val allocated_bytes : t -> int

val largest_free_block : t -> int
(** Size of the largest currently allocatable block (0 when full). *)

val external_fragmentation : t -> float
(** 1 - largest_free/free: 0 when all free space is one block, tends
    to 1 as free space shatters.  0 when no free space. *)

val live_blocks : t -> (int * int) list
(** (base, size) of every live allocation, sorted by base. *)
