(* Open-addressing hash table with int keys.

   Stdlib [Hashtbl] allocates a bucket cell per binding and chases
   bucket lists on every probe; on the simulator's hottest tables
   (directory state keyed by cache line, per-time sequence counters)
   that shows up directly in experiment wall time.  This table keeps
   keys in a flat int array with linear probing, so a lookup is a
   multiply, a mask and (usually) one array read. *)

type 'v t = {
  dummy : 'v;
  mutable keys : int array;
  mutable vals : 'v array;
  mutable mask : int; (* capacity - 1; capacity is a power of two *)
  mutable live : int; (* live bindings *)
  mutable used : int; (* live + tombstones *)
  (* Clean second buffer swapped in by same-capacity rehashes (see
     [resize]); empty until the first one. *)
  mutable spare_keys : int array;
  mutable spare_vals : 'v array;
}

(* Two reserved keys mark empty and deleted slots.  User keys this
   close to min_int do not occur (they would not survive arithmetic
   anywhere in the engine anyway). *)
let empty_key = min_int

let tomb_key = min_int + 1

let check_key k =
  if k = empty_key || k = tomb_key then invalid_arg "Itbl: reserved key"

let fib = 0x2545F4914F6CDD1D (* 64-bit mix constant, truncated to 63 bits *)

let slot_of t k = (k * fib) land t.mask

let rec ceil_pow2 n c = if c >= n then c else ceil_pow2 n (c * 2)

let create ?(capacity = 16) ~dummy () =
  let cap = ceil_pow2 (max 8 capacity) 8 in
  {
    dummy;
    keys = Array.make cap empty_key;
    vals = Array.make cap dummy;
    mask = cap - 1;
    live = 0;
    used = 0;
    spare_keys = [||];
    spare_vals = [||];
  }

(* Returns the slot holding [k], or (-slot - 1) where the probe ended
   on an empty slot ([k] absent).  The probe loop is a top-level
   function on purpose: without flambda, an inner [let rec] that
   captures [keys]/[mask] is a heap-allocated closure on every call,
   and this is the hottest function in the engine. *)
let rec probe_slot keys mask k i =
  let kk = Array.unsafe_get keys i in
  if kk = k then i
  else if kk = empty_key then -i - 1
  else probe_slot keys mask k ((i + 1) land mask)

let find_slot t k = probe_slot t.keys t.mask k (slot_of t k)

let mem t k =
  check_key k;
  find_slot t k >= 0

let find t k =
  check_key k;
  let i = find_slot t k in
  if i >= 0 then Array.unsafe_get t.vals i else t.dummy

let iter f t =
  Array.iteri
    (fun i k -> if k > tomb_key then f k t.vals.(i))
    t.keys

(* Triggered when live + tombstones pass 2/3 of capacity.

   The capacity is sized for the LIVE population, never blindly
   doubled: on churn-heavy tables (the simulator's per-time sequence
   counters see one insert and one remove per distinct event time,
   forever) the slots are almost all tombstones, and doubling every
   2/3·cap removals would grow capacity — and heap traffic — without
   bound.  Such tables instead rehash at their current capacity,
   ping-ponging between two buffers kept on the table (the retired
   buffer is wiped and becomes the next spare), so steady-state
   tombstone collection allocates nothing at all.  A genuinely growing
   table (live ≈ used) still doubles; capacity never shrinks. *)
let rec rehash_ins keys vals mask k v j =
  if Array.unsafe_get keys j = empty_key then begin
    Array.unsafe_set keys j k;
    Array.unsafe_set vals j v
  end
  else rehash_ins keys vals mask k v ((j + 1) land mask)

let resize t =
  let old_keys = t.keys and old_vals = t.vals in
  let cur = t.mask + 1 in
  let need = ceil_pow2 (max 8 (3 * (t.live + 1))) 8 in
  let cap = if need > cur then need else cur in
  if Array.length t.spare_keys = cap then begin
    (* Spares are pre-wiped when retired below. *)
    t.keys <- t.spare_keys;
    t.vals <- t.spare_vals
  end
  else begin
    t.keys <- Array.make cap empty_key;
    t.vals <- Array.make cap t.dummy
  end;
  t.mask <- cap - 1;
  t.used <- t.live;
  let keys = t.keys and vals = t.vals and mask = t.mask in
  for i = 0 to Array.length old_keys - 1 do
    let k = Array.unsafe_get old_keys i in
    if k > tomb_key then
      rehash_ins keys vals mask k (Array.unsafe_get old_vals i)
        ((k * fib) land mask)
  done;
  (* Retire the old buffer as a clean spare so the next same-size
     rehash is allocation-free (and stale values don't pin their
     referents). *)
  Array.fill old_keys 0 (Array.length old_keys) empty_key;
  Array.fill old_vals 0 (Array.length old_vals) t.dummy;
  t.spare_keys <- old_keys;
  t.spare_vals <- old_vals

(* Insert at the end of a failed probe, recycling a tombstone on the
   probe path when one exists.  Top-level loop for the same reason as
   [probe_slot]. *)
let rec tomb_on_path keys mask first_empty i =
  let kk = Array.unsafe_get keys i in
  if i = first_empty then i
  else if kk = tomb_key then i
  else tomb_on_path keys mask first_empty ((i + 1) land mask)

let insert t k v first_empty =
  let mask = t.mask in
  let keys = t.keys in
  let i = tomb_on_path keys mask first_empty (slot_of t k) in
  if keys.(i) = empty_key then t.used <- t.used + 1;
  keys.(i) <- k;
  t.vals.(i) <- v;
  t.live <- t.live + 1;
  if 3 * t.used > 2 * (mask + 1) then resize t

let set t k v =
  check_key k;
  let i = find_slot t k in
  if i >= 0 then t.vals.(i) <- v else insert t k v (-i - 1)

let mutate t k f =
  check_key k;
  let i = find_slot t k in
  if i >= 0 then begin
    let old = Array.unsafe_get t.vals i in
    t.vals.(i) <- f old;
    old
  end
  else begin
    insert t k (f t.dummy) (-i - 1);
    t.dummy
  end

let remove t k =
  check_key k;
  let i = find_slot t k in
  if i >= 0 then begin
    t.keys.(i) <- tomb_key;
    t.vals.(i) <- t.dummy;
    t.live <- t.live - 1
  end
