open Iw_engine

type granularity = Page of int | Object

type config = {
  local_capacity_words : int;
  granularity : granularity;
  local_cost : int;
  far_cost : int;
}

let default ~local_capacity_words granularity =
  { local_capacity_words; granularity; local_cost = 4; far_cost = 400 }

type result = {
  granularity : granularity;
  local_fraction : float;
  local_hit_rate : float;
  slowdown_vs_all_local : float;
}

(* Zipf sampling over [1..n] with exponent [s], via inverse CDF on a
   precomputed table.  Plain float loops keep every sum unboxed; the
   weights, their total and the running sum are added in index order,
   as a left fold would add them. *)
let zipf_cdf n s =
  let cdf = Array.make n 0.0 in
  for i = 0 to n - 1 do
    cdf.(i) <- 1.0 /. Float.pow (float_of_int (i + 1)) s
  done;
  let total = ref 0.0 in
  for i = 0 to n - 1 do
    total := !total +. cdf.(i)
  done;
  let total = !total in
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    acc := !acc +. (cdf.(i) /. total);
    cdf.(i) <- !acc
  done;
  cdf

(* The draw is [Rng.float rng 1.0] inlined, bit for bit: a float
   returned across a module boundary is boxed, 2 words per draw. *)
let sample_zipf rng cdf =
  let u = float_of_int (Rng.raw53 rng) /. 9007199254740992.0 in
  (* Binary search for the first index with cdf >= u. *)
  let lo = ref 0 and hi = ref (Array.length cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cdf.(mid) >= u then hi := mid else lo := mid + 1
  done;
  !lo

(* Refuse a shape no heap has, naming the field and the caller. *)
let check fn ~objects ~object_words ~accesses ~zipf =
  let refuse field rule =
    invalid_arg (Printf.sprintf "Far_memory.%s: %s must be %s" fn field rule)
  in
  if objects <= 0 then refuse "objects" "> 0";
  if object_words <= 0 then refuse "object_words" "> 0";
  if accesses <= 0 then refuse "accesses" "> 0";
  if not (Float.is_finite zipf && zipf >= 0.0) then
    refuse "zipf" "finite and >= 0"

(* [simulate] on a heap whose Zipf table [cdf] is already built. *)
let simulate_cdf ~cdf ~objects ~object_words ~accesses config =
  let rng = Rng.create ~seed:13 in
  (* Objects are allocated in a shuffled order, as real allocation
     interleaves hot and cold objects on the same pages. *)
  let placement = Array.init objects Fun.id in
  Rng.shuffle rng placement;
  (* Count accesses per object. *)
  let heat = Array.make objects 0 in
  for _ = 1 to accesses do
    let o = sample_zipf rng cdf in
    heat.(o) <- heat.(o) + 1
  done;
  (* Choose the resident set. *)
  let resident = Array.make objects false in
  let capacity = config.local_capacity_words in
  (match config.granularity with
  | Object ->
      (* Evacuate coldest objects: keep the hottest that fit. *)
      let order = Array.init objects Fun.id in
      Array.sort (fun a b -> compare heat.(b) heat.(a)) order;
      let used = ref 0 in
      Array.iter
        (fun o ->
          if !used + object_words <= capacity then begin
            resident.(o) <- true;
            used := !used + object_words
          end)
        order
  | Page page_words ->
      let per_page = max 1 (page_words / object_words) in
      let pages = (objects + per_page - 1) / per_page in
      (* Page heat = sum of its objects' heat (objects land on pages
         in allocation order). *)
      let page_heat = Array.make pages 0 in
      Array.iteri
        (fun slot o -> page_heat.(slot / per_page) <- page_heat.(slot / per_page) + heat.(o))
        placement;
      let order = Array.init pages Fun.id in
      Array.sort (fun a b -> compare page_heat.(b) page_heat.(a)) order;
      let used = ref 0 in
      Array.iter
        (fun pg ->
          if !used + page_words <= capacity then begin
            used := !used + page_words;
            for slot = pg * per_page to min (objects - 1) (((pg + 1) * per_page) - 1) do
              resident.(placement.(slot)) <- true
            done
          end)
        order);
  (* Measure. *)
  let local_hits = ref 0 and total_cost = ref 0 in
  Array.iteri
    (fun o h ->
      if resident.(o) then begin
        local_hits := !local_hits + h;
        total_cost := !total_cost + (h * config.local_cost)
      end
      else total_cost := !total_cost + (h * config.far_cost))
    heat;
  let resident_words =
    Array.fold_left
      (fun acc r -> if r then acc + object_words else acc)
      0 resident
  in
  let all_local = accesses * config.local_cost in
  {
    granularity = config.granularity;
    local_fraction =
      float_of_int resident_words /. float_of_int (objects * object_words);
    local_hit_rate = float_of_int !local_hits /. float_of_int accesses;
    slowdown_vs_all_local = float_of_int !total_cost /. float_of_int all_local;
  }

let simulate ~objects ~object_words ~accesses ~zipf (config : config) =
  check "simulate" ~objects ~object_words ~accesses ~zipf;
  (* A page of no words would hold every object in no capacity. *)
  (match config.granularity with
  | Page words when words <= 0 ->
      invalid_arg
        "Far_memory.simulate: granularity must be Object or Page n with n > 0"
  | Page _ | Object -> ());
  simulate_cdf ~cdf:(zipf_cdf objects zipf) ~objects ~object_words ~accesses
    config

let sweep ~objects ~object_words ~accesses ~zipf ~fractions () =
  check "sweep" ~objects ~object_words ~accesses ~zipf;
  if List.exists (fun f -> not (f >= 0.0 && f <= 1.0)) fractions then
    invalid_arg "Far_memory.sweep: fractions must lie in [0, 1]";
  (* Every run samples the same heap: one table serves them all. *)
  let cdf = zipf_cdf objects zipf in
  let heap = objects * object_words in
  List.map
    (fun frac ->
      let capacity = int_of_float (frac *. float_of_int heap) in
      let run granularity =
        simulate_cdf ~cdf ~objects ~object_words ~accesses
          (default ~local_capacity_words:capacity granularity)
      in
      let page = run (Page 512) in
      let obj = run Object in
      (frac, page, obj))
    fractions
