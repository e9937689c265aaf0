(** Bounded per-worker run queue with drop-tail shedding.

    Two service orders: [Fifo] (one lane, arrival order) and
    [Priority] (two lanes; high-priority requests always pop first,
    FIFO within a lane).  The bound covers both lanes together;
    {!try_push} refuses — drop-tail — when the queue is full, and the
    queue keeps its own pushed/dropped counts for backpressure
    accounting.

    Elements are non-negative ints (request-arena indices); both lanes
    are preallocated ring buffers, so push and pop are O(1) and
    allocation-free.

    Batched draining: {!lease_pop} removes an element but keeps it
    counted in {!length} (and against the capacity bound) until
    {!settle} is called — a worker that drains several requests per
    doorbell wake stays indistinguishable, to dispatch-policy length
    probes and to the admission bound, from one that pops them one at
    a time. *)

type order = Fifo | Priority

val order_name : order -> string
val order_of_string : string -> order option

type t

val create : order:order -> cap:int -> t
(** @raise Invalid_argument when [cap < 1]. *)

val order : t -> order
val capacity : t -> int

val length : t -> int
(** Queued plus leased elements — what a dispatch policy sees. *)

val is_empty : t -> bool
(** No element left to pop (leased elements do not count here). *)

val try_push : t -> hi:bool -> int -> bool
(** [false] = queue full, request dropped (counted). [hi] is ignored
    under [Fifo].  @raise Invalid_argument on a negative element. *)

val pop : t -> int option

val pop_idx : t -> int
(** Like {!pop}; [-1] when empty.  No allocation. *)

val lease_pop : t -> int
(** Pop ([-1] when empty) but keep the element counted in {!length}
    until the matching {!settle}. *)

val settle : t -> unit
(** Retire one leased element.  @raise Invalid_argument when nothing
    is leased. *)

val pushed : t -> int
val dropped : t -> int
