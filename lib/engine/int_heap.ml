(* Binary min-heap specialized to int keys.

   Keys are a flat int array compared with [<] directly (no
   polymorphic-compare or closure call per sift step), and payloads
   sit in a parallel array.  This is the simulator's event queue. *)

type 'a t = {
  dummy : 'a;
  mutable keys : int array;
  mutable vals : 'a array;
  mutable size : int;
}

let create ?(capacity = 16) ~dummy () =
  let cap = max 1 capacity in
  { dummy; keys = Array.make cap 0; vals = Array.make cap dummy; size = 0 }

let length t = t.size

let is_empty t = t.size = 0

let grow t =
  let cap = Array.length t.keys * 2 in
  let keys = Array.make cap 0 and vals = Array.make cap t.dummy in
  Array.blit t.keys 0 keys 0 t.size;
  Array.blit t.vals 0 vals 0 t.size;
  t.keys <- keys;
  t.vals <- vals

(* Sift loops are top-level tail recursions: a [ref]-based while loop
   would heap-allocate the ref cells on every push/pop (no flambda),
   and the event queue sees millions of both per run. *)
let rec sift_up keys vals k v i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if Array.unsafe_get keys parent > k then begin
      Array.unsafe_set keys i (Array.unsafe_get keys parent);
      Array.unsafe_set vals i (Array.unsafe_get vals parent);
      sift_up keys vals k v parent
    end
    else begin
      Array.unsafe_set keys i k;
      Array.unsafe_set vals i v
    end
  end
  else begin
    Array.unsafe_set keys i k;
    Array.unsafe_set vals i v
  end

let push t k v =
  if t.size = Array.length t.keys then grow t;
  let i = t.size in
  t.size <- i + 1;
  sift_up t.keys t.vals k v i

let min_key t =
  if t.size = 0 then invalid_arg "Int_heap.min_key: empty";
  t.keys.(0)

let top t =
  if t.size = 0 then invalid_arg "Int_heap.top: empty";
  t.vals.(0)

let rec sift_down keys vals n k v i =
  let l = (2 * i) + 1 in
  if l >= n then begin
    Array.unsafe_set keys i k;
    Array.unsafe_set vals i v
  end
  else begin
    let r = l + 1 in
    let c =
      if r < n && Array.unsafe_get keys r < Array.unsafe_get keys l then r
      else l
    in
    if Array.unsafe_get keys c < k then begin
      Array.unsafe_set keys i (Array.unsafe_get keys c);
      Array.unsafe_set vals i (Array.unsafe_get vals c);
      sift_down keys vals n k v c
    end
    else begin
      Array.unsafe_set keys i k;
      Array.unsafe_set vals i v
    end
  end

let pop t =
  if t.size = 0 then invalid_arg "Int_heap.pop: empty";
  let keys = t.keys and vals = t.vals in
  let res = vals.(0) in
  let n = t.size - 1 in
  t.size <- n;
  let k = keys.(n) and v = vals.(n) in
  vals.(n) <- t.dummy;
  if n > 0 then
    (* Sift the last element down from the root. *)
    sift_down keys vals n k v 0;
  res

let clear t =
  Array.fill t.vals 0 t.size t.dummy;
  t.size <- 0
