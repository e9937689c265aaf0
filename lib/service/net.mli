(** The inter-machine network model for fleet serving.

    Each front↔machine direction is a {!link}: a fixed propagation
    latency, a serialization FIFO (one message at a time at the
    link's bandwidth), and a bounded in-flight window — message [i]
    cannot start serializing until message [i - ]{!inflight} has been
    delivered, the credit-style backpressure real NICs apply.

    Routing is a pure function of the call sequence: the fleet
    coordinator routes every window's messages in one canonical
    order (send time, then source node, then submission order), so
    delivery times are identical however the per-machine domains
    were scheduled — the property the qcheck determinism tests pin.

    Messages themselves live in {!msgbuf} outboxes: growable int
    arrays appended from machine domains during a window and drained
    by the coordinator at the barrier, so a message never allocates. *)

type config = {
  nc_lat_us : float;  (** one-way propagation latency *)
  nc_gbps : float;  (** per-direction link bandwidth *)
}

val default : config
(** 15 us, 10 Gb/s. *)

val inflight : int
(** The in-flight window per link direction: 256 messages. *)

type link

val link : config -> ghz:float -> link
val lat_cycles : config -> ghz:float -> int
(** Propagation latency in cycles — the conservative synchronization
    window: no message sent in a window can be delivered inside the
    same window.  @raise Invalid_argument, naming [nc_lat_us], if the
    latency is below one cycle. *)

val route : link -> send:int -> bytes:int -> extra:int -> int
(** Delivery time for a message handed to the link at [send]:
    serialization start is [send], delayed by the FIFO (an earlier
    message still serializing) and the in-flight window; delivery is
    start + tx + latency + [extra] (fault-injected delay).  Updates
    link state; calls must be made in canonical message order. *)

(* ------------------------------------------------------------------ *)
(* Outboxes *)

(** Message kinds, packed in {!msgbuf} int cells. *)

val k_req : int
val k_resp : int
val k_gossip : int
val k_nack : int

type msgbuf = {
  mutable mb_n : int;
  mutable mb_kind : int array;
  mutable mb_dst : int array;  (** machine index, or -1 = front *)
  mutable mb_a : int array;  (** request handle / gossip depth *)
  mutable mb_b : int array;  (** attempt number / hi flag *)
  mutable mb_t : int array;  (** send time (cycles) *)
}

val mb_create : unit -> msgbuf
val mb_push : msgbuf -> kind:int -> dst:int -> a:int -> b:int -> t:int -> unit
val mb_clear : msgbuf -> unit
