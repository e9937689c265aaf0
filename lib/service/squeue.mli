(** Bounded per-worker run queue with drop-tail shedding.

    Two service orders: [Fifo] (one lane, arrival order) and
    [Priority] (two lanes; high-priority requests always pop first,
    FIFO within a lane).  The bound covers both lanes together;
    {!try_push} refuses — drop-tail — when the queue is full.  The
    queue keeps no tally of its own: its callers count admissions and
    sheds in their kernel's [service_admitted] and [service_shed]
    counters.

    Elements are non-negative ints (request-arena indices); both lanes
    are preallocated ring buffers, so push and pop are O(1) and
    allocation-free. *)

type order = Fifo | Priority

val order_name : order -> string
val order_of_string : string -> order option

type t

val max_cap : int
(** 65,536: the largest [cap] {!create} accepts.  Each lane holds
    [cap] preallocated words, and the executor sizes its request arena
    by the caps of all its queues. *)

val create : order:order -> cap:int -> t
(** @raise Invalid_argument when [cap] is outside [1, max_cap]. *)

val order : t -> order

val length : t -> int
(** Queued elements — what a dispatch policy sees. *)

val is_empty : t -> bool

val try_push : t -> hi:bool -> int -> bool
(** [false] = queue full, request dropped. [hi] is ignored under
    [Fifo].  @raise Invalid_argument on a negative element. *)

val pop_idx : t -> int
(** The next element — the high lane first under [Priority] — or [-1]
    when empty.  No allocation. *)
