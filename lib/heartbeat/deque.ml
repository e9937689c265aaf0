(* A ring of slots indexed by two ever-growing counters: [top] is the
   oldest element, [bottom] one past the newest.  The capacity is a
   power of two, so an index is the counter masked; it doubles when
   full, the only allocation after [create]. *)
type 'a t = {
  nil : 'a;  (* fills every slot no element holds *)
  mutable buf : 'a array;
  mutable top : int;
  mutable bottom : int;
}

let create nil = { nil; buf = Array.make 16 nil; top = 0; bottom = 0 }
let length t = t.bottom - t.top
let is_empty t = t.bottom = t.top

let grow t =
  let n = Array.length t.buf in
  let buf = Array.make (2 * n) t.nil in
  for i = t.top to t.bottom - 1 do
    buf.(i land ((2 * n) - 1)) <- t.buf.(i land (n - 1))
  done;
  t.buf <- buf

let push_bottom t x =
  if length t = Array.length t.buf then grow t;
  t.buf.(t.bottom land (Array.length t.buf - 1)) <- x;
  t.bottom <- t.bottom + 1

let take t i =
  let j = i land (Array.length t.buf - 1) in
  let x = t.buf.(j) in
  t.buf.(j) <- t.nil;
  x

let pop_bottom t =
  if is_empty t then invalid_arg "Deque.pop_bottom: empty";
  t.bottom <- t.bottom - 1;
  take t t.bottom

let steal_top t =
  if is_empty t then invalid_arg "Deque.steal_top: empty";
  t.top <- t.top + 1;
  take t (t.top - 1)
