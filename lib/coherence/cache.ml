type state = Modified | Exclusive | Shared_state | Invalid

(* One flat entry per way: [(line lsl 2) lor code], or [-1] for an
   empty way.  A whole 8-way set is 64 contiguous bytes, so the
   per-access scan touches one cache line of the host machine instead
   of chasing eight boxed way records.  Codes 1..3 only: [set_state]
   goes through [find], which skips invalid ways, so a resident line
   can never be stored with the Invalid code. *)

let code = function Invalid -> 0 | Shared_state -> 1 | Exclusive -> 2 | Modified -> 3

let state_of_code = [| Invalid; Shared_state; Exclusive; Modified |]

type t = {
  sets : int;
  assoc : int;
  set_mask : int; (* sets - 1 when sets is a power of two, else 0 *)
  line_shift : int; (* log2 line_bytes; line size is enforced pow2 *)
  data : int array; (* sets * assoc packed entries *)
  lru : int array; (* sets * assoc last-touch stamps *)
  line_bytes : int;
  mutable clock : int;
}

let is_pow2 n = n > 0 && n land (n - 1) = 0

let rec log2 n = if n <= 1 then 0 else 1 + log2 (n / 2)

let create ~size_kb ~ways ~line_bytes =
  if size_kb < 1 then
    invalid_arg
      (Printf.sprintf "Cache.create: cache_kb (size_kb) = %d must be positive"
         size_kb);
  if ways < 1 then
    invalid_arg (Printf.sprintf "Cache.create: ways = %d must be positive" ways);
  if not (is_pow2 line_bytes) then
    invalid_arg "Cache.create: line size must be a power of two";
  let total_lines = size_kb * 1024 / line_bytes in
  if total_lines = 0 || total_lines mod ways <> 0 then
    invalid_arg
      (Printf.sprintf "Cache.create: %d lines do not fill whole %d-way sets"
         total_lines ways);
  let sets = total_lines / ways in
  {
    sets;
    assoc = ways;
    set_mask = (if is_pow2 sets then sets - 1 else 0);
    line_shift = log2 line_bytes;
    data = Array.make total_lines (-1);
    lru = Array.make total_lines 0;
    line_bytes;
    clock = 0;
  }

(* Addresses and lines are non-negative (a negative line would have
   indexed outside the set array from day one), so shift-and-mask
   agrees with the division it replaces. *)
let line_of_addr t addr = addr lsr t.line_shift

let set_of_line t line =
  if t.set_mask <> 0 then line land t.set_mask else line mod t.sets

(* Index of the way in [i, stop) holding [line], or -1.  Empty ways
   are -1, which shifts to -1 and never equals a (non-negative) line.
   A top-level loop: without flambda an inner [let rec] capturing the
   set bounds is a fresh closure on every probe. *)
let rec probe data line i stop =
  if i >= stop then -1
  else if Array.unsafe_get data i asr 2 = line then i
  else probe data line (i + 1) stop

let find t line =
  let base = set_of_line t line * t.assoc in
  probe t.data line base (base + t.assoc)

let touch t j =
  t.clock <- t.clock + 1;
  Array.unsafe_set t.lru j t.clock

let lookup t addr =
  let j = find t (line_of_addr t addr) in
  if j < 0 then Invalid
  else begin
    touch t j;
    state_of_code.(t.data.(j) land 3)
  end

let install t addr st =
  let line = line_of_addr t addr in
  let j = find t line in
  if j >= 0 then begin
    t.data.(j) <- (line lsl 2) lor code st;
    touch t j;
    -1
  end
  else begin
    let base = set_of_line t line * t.assoc in
    (* Prefer an invalid way (the last one, as the record-based
       implementation did); otherwise evict the LRU one. *)
    let vic = ref base in
    let found_invalid = ref false in
    for i = 0 to t.assoc - 1 do
      let j = base + i in
      if t.data.(j) < 0 then begin
        vic := j;
        found_invalid := true
      end
      else if (not !found_invalid) && t.lru.(j) < t.lru.(!vic) then vic := j
    done;
    (* The displaced entry is the result: -1 for an empty way. *)
    let evicted = t.data.(!vic) in
    t.data.(!vic) <- (line lsl 2) lor code st;
    touch t !vic;
    evicted
  end

let evicted_line e = e asr 2

let evicted_state e = state_of_code.(e land 3)

let set_state t addr st =
  let line = line_of_addr t addr in
  let j = find t line in
  if j >= 0 then t.data.(j) <- (line lsl 2) lor code st

let invalidate t addr =
  let j = find t (line_of_addr t addr) in
  if j >= 0 then t.data.(j) <- -1

let resident t addr = find t (line_of_addr t addr) >= 0

let fold t ~init ~f =
  let acc = ref init in
  Array.iter
    (fun e -> if e >= 0 then acc := f !acc (e asr 2) state_of_code.(e land 3))
    t.data;
  !acc
