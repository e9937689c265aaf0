(** Memory-consistency cost model: total-order vs selective fencing
    (§V-B's ordering argument).

    "A fence orders writes that produce data before setting the done
    flag, but it also orders all other writes the thread issued, even
    if they are unrelated to the intended use of the fence."  This
    module makes that sentence measurable: a per-core store buffer
    drains writes at a fixed rate; a fence stalls until the stores it
    must order have drained.  Under [Tso] that is {e every} pending
    store; under [Selective] (the language-informed model) only the
    stores to the flagged data set.

    The producer/consumer workload interleaves data stores with
    unrelated (private) stores and publishes via a flag; the fence
    stall difference is pure waste eliminated by crossing layers. *)

type model = Tso | Selective

type params = {
  store_drain_cycles : int;  (** Cycles for one store to leave the buffer. *)
  buffer_slots : int;  (** Capacity; a full buffer stalls stores too. *)
}

type result = {
  model : model;
  iterations : int;
  total_cycles : int;
  fence_stalls : int;  (** Cycles spent stalled at fences. *)
  store_stalls : int;  (** Cycles stalled on a full buffer. *)
}

val producer_consumer :
  ?params:params ->
  iterations:int ->
  data_stores:int ->
  unrelated_stores:int ->
  model ->
  result
(** Each iteration: [data_stores] ordered stores and
    [unrelated_stores] unrelated ones (interleaved), then a fence,
    then the flag store.  The buffer is a ring of [buffer_slots] drain
    times; nothing is allocated per store.

    @raise Invalid_argument naming the field when [iterations] or
    [buffer_slots] is below 1, or [store_drain_cycles], [data_stores]
    or [unrelated_stores] is negative. *)
