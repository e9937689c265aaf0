open Iw_engine

(* Blocks are named by their offset from [base] inside the tables, so
   no key is ever one of [Itbl]'s reserved values. *)
type t = {
  base : int;
  size : int;
  min_order : int;
  max_order : int;
  (* Per-order free lists: the offsets of the free blocks of 2^o sit,
     in no particular order, in the first [len.(o - min_order)] cells
     of [free.(o - min_order)]. *)
  free : int array array;
  len : int array;
  (* A free block's offset -> its cell in its order's list; -1 for
     any other offset.  Makes a buddy's membership test O(1). *)
  cell : int Itbl.t;
  live : int Itbl.t;  (* live offset -> order; -1 when not live *)
  mutable allocated : int;
  (* State of the lowest-address search: the best offset so far,
     its order and its cell. *)
  mutable hit : int;
  mutable hit_order : int;
  mutable hit_cell : int;
}

let is_pow2 n = n > 0 && n land (n - 1) = 0

let log2 n =
  let rec go acc n = if n <= 1 then acc else go (acc + 1) (n lsr 1) in
  go 0 n

(* Add the free block at [off] to the list of order [o]. *)
let push t o off =
  let k = o - t.min_order in
  let n = t.len.(k) in
  let cells = t.free.(k) in
  let cells =
    if n < Array.length cells then cells
    else begin
      let bigger = Array.make (2 * n) 0 in
      Array.blit cells 0 bigger 0 n;
      t.free.(k) <- bigger;
      bigger
    end
  in
  cells.(n) <- off;
  t.len.(k) <- n + 1;
  Itbl.set t.cell off n

(* Take the block in cell [i] of list [k] off it; the list's last
   block moves into the hole. *)
let unlink t k i =
  let cells = t.free.(k) in
  let n = t.len.(k) - 1 in
  Itbl.remove t.cell cells.(i);
  if i < n then begin
    let last = cells.(n) in
    cells.(i) <- last;
    Itbl.set t.cell last i
  end;
  t.len.(k) <- n

let create ~base ~size ~min_block =
  if not (is_pow2 size) then invalid_arg "Buddy.create: size not a power of two";
  if not (is_pow2 min_block) then
    invalid_arg "Buddy.create: min_block not a power of two";
  if min_block > size then invalid_arg "Buddy.create: min_block > size";
  if base land (size - 1) <> 0 then
    invalid_arg "Buddy.create: base not aligned to size";
  let min_order = log2 min_block and max_order = log2 size in
  let t =
    {
      base;
      size;
      min_order;
      max_order;
      free = Array.init (max_order - min_order + 1) (fun _ -> Array.make 4 0);
      len = Array.make (max_order - min_order + 1) 0;
      cell = Itbl.create ~capacity:64 ~dummy:(-1) ();
      live = Itbl.create ~capacity:64 ~dummy:(-1) ();
      allocated = 0;
      hit = max_int;
      hit_order = 0;
      hit_cell = 0;
    }
  in
  push t max_order 0;
  t

let rec order_from o n = if 1 lsl o >= n then o else order_from (o + 1) n

(* Lowest offset in cells [i, n) of list [k], against the best so far. *)
let rec lowest_in t k cells n i =
  if i < n then begin
    let off = Array.unsafe_get cells i in
    if off < t.hit then begin
      t.hit <- off;
      t.hit_order <- k + t.min_order;
      t.hit_cell <- i
    end;
    lowest_in t k cells n (i + 1)
  end

(* Split the block at [off] from order [o] down to [want], freeing the
   upper half at each step. *)
let rec split t off o want =
  if o > want then begin
    let o' = o - 1 in
    push t o' (off + (1 lsl o'));
    split t off o' want
  end

let alloc t n =
  if n <= 0 then invalid_arg "Buddy.alloc: n <= 0";
  let want = order_from t.min_order n in
  if want > t.max_order then None
  else begin
    (* Lowest-address fit across all sufficient orders: keeps
       allocation deterministic and makes compaction converge. *)
    t.hit <- max_int;
    for k = want - t.min_order to t.max_order - t.min_order do
      lowest_in t k t.free.(k) t.len.(k) 0
    done;
    if t.hit = max_int then None
    else begin
      let off = t.hit in
      unlink t (t.hit_order - t.min_order) t.hit_cell;
      split t off t.hit_order want;
      Itbl.set t.live off want;
      t.allocated <- t.allocated + (1 lsl want);
      Some (t.base + off)
    end
  end

(* Merge the freed block at [off] with its buddy while the buddy is
   free at the same order. *)
let rec coalesce t off o =
  if o >= t.max_order then push t o off
  else begin
    let buddy = off lxor (1 lsl o) in
    let k = o - t.min_order in
    let i = Itbl.find t.cell buddy in
    if i >= 0 && i < t.len.(k) && t.free.(k).(i) = buddy then begin
      unlink t k i;
      coalesce t (min off buddy) (o + 1)
    end
    else push t o off
  end

(* The order of the live block at [addr], or -1. *)
let live_order t addr =
  let off = addr - t.base in
  if off < 0 || off >= t.size then -1 else Itbl.find t.live off

let free t addr =
  let order = live_order t addr in
  if order < 0 then
    invalid_arg (Printf.sprintf "Buddy.free: %#x is not live" addr);
  let off = addr - t.base in
  Itbl.remove t.live off;
  t.allocated <- t.allocated - (1 lsl order);
  coalesce t off order

let block_size t addr =
  let order = live_order t addr in
  if order < 0 then
    invalid_arg (Printf.sprintf "Buddy.block_size: %#x is not live" addr);
  1 lsl order

let allocated_bytes t = t.allocated
let free_bytes t = t.size - t.allocated

let largest_free_block t =
  let rec go o =
    if o < t.min_order then 0
    else if t.len.(o - t.min_order) > 0 then 1 lsl o
    else go (o - 1)
  in
  go t.max_order

let external_fragmentation t =
  let free = free_bytes t in
  if free = 0 then 0.0
  else 1.0 -. (float_of_int (largest_free_block t) /. float_of_int free)

let live_blocks t =
  let acc = ref [] in
  Itbl.iter
    (fun off order -> acc := (t.base + off, 1 lsl order) :: !acc)
    t.live;
  List.sort compare !acc
