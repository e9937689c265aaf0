type order = Fifo | Priority

let order_name = function Fifo -> "fifo" | Priority -> "priority"

let order_of_string = function
  | "fifo" -> Some Fifo
  | "priority" | "prio" -> Some Priority
  | _ -> None

(* Both lanes are ring buffers over preallocated int arrays: push and
   pop are O(1) and allocation-free (the old [Queue.t] lanes allocated
   a cell per push).  Elements are request-arena indices, always
   non-negative; [-1] is the empty sentinel of [pop_idx]. *)
type t = {
  q_order : order;
  q_cap : int;
  hi_buf : int array;  (** Unused under [Fifo]. *)
  lo_buf : int array;
  mutable hi_head : int;
  mutable hi_n : int;
  mutable lo_head : int;
  mutable lo_n : int;
}

let max_cap = 65_536

let create ~order ~cap =
  if cap < 1 then invalid_arg "Squeue.create: capacity must be >= 1";
  if cap > max_cap then
    invalid_arg (Printf.sprintf "Squeue.create: capacity must be <= %d" max_cap);
  {
    q_order = order;
    q_cap = cap;
    hi_buf = (match order with Priority -> Array.make cap (-1) | Fifo -> [||]);
    lo_buf = Array.make cap (-1);
    hi_head = 0;
    hi_n = 0;
    lo_head = 0;
    lo_n = 0;
  }

let order t = t.q_order
let length t = t.hi_n + t.lo_n
let is_empty t = t.hi_n = 0 && t.lo_n = 0

let[@inline] wrap t i = if i >= t.q_cap then i - t.q_cap else i

let try_push t ~hi x =
  if x < 0 then invalid_arg "Squeue.try_push: negative element";
  if length t >= t.q_cap then false
  else begin
    (match t.q_order with
    | Priority when hi ->
        t.hi_buf.(wrap t (t.hi_head + t.hi_n)) <- x;
        t.hi_n <- t.hi_n + 1
    | Fifo | Priority ->
        t.lo_buf.(wrap t (t.lo_head + t.lo_n)) <- x;
        t.lo_n <- t.lo_n + 1);
    true
  end

let pop_idx t =
  if t.hi_n > 0 then begin
    let x = t.hi_buf.(t.hi_head) in
    t.hi_head <- wrap t (t.hi_head + 1);
    t.hi_n <- t.hi_n - 1;
    x
  end
  else if t.lo_n > 0 then begin
    let x = t.lo_buf.(t.lo_head) in
    t.lo_head <- wrap t (t.lo_head + 1);
    t.lo_n <- t.lo_n - 1;
    x
  end
  else -1
