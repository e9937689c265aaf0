type order = Fifo | Priority

let order_name = function Fifo -> "fifo" | Priority -> "priority"

let order_of_string = function
  | "fifo" -> Some Fifo
  | "priority" | "prio" -> Some Priority
  | _ -> None

(* Both lanes are ring buffers over preallocated int arrays: push and
   pop are O(1) and allocation-free (the old [Queue.t] lanes allocated
   a cell per push).  Elements are request-arena indices, always
   non-negative; [-1] is the empty sentinel on the index-returning
   pops.

   [leased] supports batched draining: a worker may pop several
   requests per doorbell wake and stage them privately, but until a
   staged request actually starts executing it must still count
   against the bound and in [length] — dispatch policies probe queue
   lengths, and a semantics-preserving batch cannot make a queue look
   shorter than its unbatched twin. *)
type t = {
  q_order : order;
  q_cap : int;
  hi_buf : int array;  (** Unused under [Fifo]. *)
  lo_buf : int array;
  mutable hi_head : int;
  mutable hi_n : int;
  mutable lo_head : int;
  mutable lo_n : int;
  mutable leased : int;
  mutable pushed : int;
  mutable dropped : int;
}

let create ~order ~cap =
  if cap < 1 then invalid_arg "Squeue.create: capacity must be >= 1";
  {
    q_order = order;
    q_cap = cap;
    hi_buf = (match order with Priority -> Array.make cap (-1) | Fifo -> [||]);
    lo_buf = Array.make cap (-1);
    hi_head = 0;
    hi_n = 0;
    lo_head = 0;
    lo_n = 0;
    leased = 0;
    pushed = 0;
    dropped = 0;
  }

let order t = t.q_order
let length t = t.hi_n + t.lo_n + t.leased
let is_empty t = t.hi_n = 0 && t.lo_n = 0
let pushed t = t.pushed
let dropped t = t.dropped

let[@inline] wrap t i = if i >= t.q_cap then i - t.q_cap else i

let try_push t ~hi x =
  if x < 0 then invalid_arg "Squeue.try_push: negative element";
  if length t >= t.q_cap then begin
    t.dropped <- t.dropped + 1;
    false
  end
  else begin
    (match t.q_order with
    | Priority when hi ->
        t.hi_buf.(wrap t (t.hi_head + t.hi_n)) <- x;
        t.hi_n <- t.hi_n + 1
    | Fifo | Priority ->
        t.lo_buf.(wrap t (t.lo_head + t.lo_n)) <- x;
        t.lo_n <- t.lo_n + 1);
    t.pushed <- t.pushed + 1;
    true
  end

let[@inline] pop_raw t =
  if t.hi_n > 0 then begin
    let x = t.hi_buf.(t.hi_head) in
    t.hi_head <- wrap t (t.hi_head + 1);
    t.hi_n <- t.hi_n - 1;
    x
  end
  else begin
    let x = t.lo_buf.(t.lo_head) in
    t.lo_head <- wrap t (t.lo_head + 1);
    t.lo_n <- t.lo_n - 1;
    x
  end

let pop_idx t = if is_empty t then -1 else pop_raw t

let lease_pop t =
  if is_empty t then -1
  else begin
    let x = pop_raw t in
    t.leased <- t.leased + 1;
    x
  end

let settle t =
  if t.leased <= 0 then invalid_arg "Squeue.settle: nothing leased";
  t.leased <- t.leased - 1
