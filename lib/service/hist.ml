(* Mergeable log-bucketed latency histogram (HDR-style).

   Values are non-negative integers (cycles).  Values below
   [2^sub_bits] get their own bucket (exact); above that, each octave
   is split into [2^(sub_bits-1)] sub-buckets, so the quantization
   error is bounded by ~1/2^(sub_bits-1) (< 3.2% here) at any
   magnitude.  A recorded value is quantized *down* to its bucket's
   lower bound.

   Percentiles are rank-exact over the quantized domain: [percentile h
   p] returns exactly [quantize v_r] where [v_r] is the rank-th
   smallest recorded sample and rank = ceil(p/100 * count) — the
   nearest-rank definition against a sorted reference.  Because a
   histogram is just a bucket-count vector plus (count, sum, min,
   max), merging is element-wise integer addition: associative and
   commutative by construction, which is what lets a parallel driver
   merge per-shard histograms in any grouping and stay byte-identical
   to a serial run. *)

let sub_bits = 6
let sub = 1 lsl sub_bits
let half = sub / 2

(* Enough octaves for any 62-bit value. *)
let nbuckets = sub + ((62 - sub_bits) * half)

type t = {
  buckets : int array;
  mutable count : int;
  mutable sum : int;
  mutable min_v : int;
  mutable max_v : int;
}

let create () =
  { buckets = Array.make nbuckets 0; count = 0; sum = 0; min_v = max_int; max_v = 0 }

let floor_log2 v =
  let rec go v acc = if v <= 1 then acc else go (v lsr 1) (acc + 1) in
  go v 0

let index v =
  if v < sub then v
  else begin
    let msb = floor_log2 v in
    let shift = msb - sub_bits + 1 in
    sub + ((msb - sub_bits) * half) + ((v lsr shift) - half)
  end

(* Lower bound of bucket [i] — the value recorded samples in it read
   back as. *)
let value_at i =
  if i < sub then i
  else begin
    let j = i - sub in
    let o = j / half and rem = j mod half in
    (rem + half) lsl (o + 1)
  end

let quantize v = value_at (index v)

let record t v =
  if v < 0 then invalid_arg "Hist.record: negative value";
  let i = index v in
  t.buckets.(i) <- t.buckets.(i) + 1;
  t.count <- t.count + 1;
  t.sum <- t.sum + v;
  if v < t.min_v then t.min_v <- v;
  if v > t.max_v then t.max_v <- v

let count t = t.count
let max_value t = if t.count = 0 then 0 else t.max_v
let min_value t = if t.count = 0 then 0 else t.min_v
let mean t = if t.count = 0 then 0.0 else float_of_int t.sum /. float_of_int t.count

let percentile t p =
  if p <= 0.0 || p > 100.0 then invalid_arg "Hist.percentile: p outside (0,100]";
  if t.count = 0 then 0
  else begin
    let rank =
      min t.count (max 1 (int_of_float (ceil (p /. 100.0 *. float_of_int t.count))))
    in
    let i = ref 0 and cum = ref 0 in
    while !cum < rank do
      cum := !cum + t.buckets.(!i);
      incr i
    done;
    value_at (!i - 1)
  end

let merge_into ~dst src =
  for i = 0 to nbuckets - 1 do
    dst.buckets.(i) <- dst.buckets.(i) + src.buckets.(i)
  done;
  dst.count <- dst.count + src.count;
  dst.sum <- dst.sum + src.sum;
  if src.min_v < dst.min_v then dst.min_v <- src.min_v;
  if src.max_v > dst.max_v then dst.max_v <- src.max_v

let merge_all hs =
  let dst = create () in
  Array.iter (fun h -> merge_into ~dst h) hs;
  dst

let equal a b =
  a.count = b.count && a.sum = b.sum && a.min_v = b.min_v && a.max_v = b.max_v
  && a.buckets = b.buckets

(* ------------------------------------------------------------------ *)
(* Windows: rank-exact percentiles over "everything recorded since the
   last [win_advance]", computed by diffing the live bucket vector
   against a snapshot — the histogram itself is never touched, so an
   online sampler can read percentiles without perturbing the run's
   end-of-run readout. *)

type window = {
  w_src : t;
  w_buckets : int array;  (* bucket snapshot at the last advance *)
  mutable w_count : int;  (* count snapshot at the last advance *)
}

let window src =
  { w_src = src; w_buckets = Array.make nbuckets 0; w_count = 0 }

let win_advance w =
  Array.blit w.w_src.buckets 0 w.w_buckets 0 nbuckets;
  w.w_count <- w.w_src.count

let win_count w = w.w_src.count - w.w_count

let rank_of p count =
  min count (max 1 (int_of_float (ceil (p /. 100.0 *. float_of_int count))))

let win_percentile w p =
  if p <= 0.0 || p > 100.0 then
    invalid_arg "Hist.win_percentile: p outside (0,100]";
  let c = win_count w in
  if c = 0 then 0
  else begin
    let rank = rank_of p c in
    let i = ref 0 and cum = ref 0 in
    while !cum < rank do
      cum := !cum + w.w_src.buckets.(!i) - w.w_buckets.(!i);
      incr i
    done;
    value_at (!i - 1)
  end

(* Union of several windows (e.g. one per worker shard): equivalent to
   [win_percentile] on their merged deltas, without materializing the
   merge — bucket-delta addition is the same element-wise sum that
   makes {!merge_all} associative. *)
let win_percentile_many ws p =
  if p <= 0.0 || p > 100.0 then
    invalid_arg "Hist.win_percentile_many: p outside (0,100]";
  let n = Array.length ws in
  let c = ref 0 in
  for j = 0 to n - 1 do
    c := !c + win_count ws.(j)
  done;
  if !c = 0 then 0
  else begin
    let rank = rank_of p !c in
    let i = ref 0 and cum = ref 0 in
    while !cum < rank do
      for j = 0 to n - 1 do
        let w = ws.(j) in
        cum := !cum + w.w_src.buckets.(!i) - w.w_buckets.(!i)
      done;
      incr i
    done;
    value_at (!i - 1)
  end
