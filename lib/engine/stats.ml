type t = { mutable data : float array; mutable size : int }

let create () = { data = [||]; size = 0 }

(* The index of the next sample, growing the array when it is full. *)
let next_slot t =
  if t.size = Array.length t.data then begin
    let cap = max 16 (2 * Array.length t.data) in
    let data = Array.make cap 0.0 in
    Array.blit t.data 0 data 0 t.size;
    t.data <- data
  end;
  let i = t.size in
  t.size <- i + 1;
  i

let add t x =
  let i = next_slot t in
  t.data.(i) <- x

(* The float goes straight into the array: passed to [add] it would be
   boxed, two words per sample. *)
let add_int t x =
  let i = next_slot t in
  t.data.(i) <- float_of_int x

let count t = t.size

let total t =
  let acc = ref 0.0 in
  for i = 0 to t.size - 1 do
    acc := !acc +. t.data.(i)
  done;
  !acc

let mean t = if t.size = 0 then 0.0 else total t /. float_of_int t.size

let stddev t =
  if t.size < 2 then 0.0
  else begin
    let m = mean t in
    let acc = ref 0.0 in
    for i = 0 to t.size - 1 do
      let d = t.data.(i) -. m in
      acc := !acc +. (d *. d)
    done;
    sqrt (!acc /. float_of_int t.size)
  end

let require_nonempty t name =
  if t.size = 0 then invalid_arg (Printf.sprintf "Stats.%s: empty series" name)

let min_value t =
  require_nonempty t "min_value";
  let m = ref t.data.(0) in
  for i = 1 to t.size - 1 do
    if t.data.(i) < !m then m := t.data.(i)
  done;
  !m

let max_value t =
  require_nonempty t "max_value";
  let m = ref t.data.(0) in
  for i = 1 to t.size - 1 do
    if t.data.(i) > !m then m := t.data.(i)
  done;
  !m

(* Nearest-rank percentile over a sorted copy of the samples. *)
let percentile t p =
  require_nonempty t "percentile";
  if p < 0.0 || p > 100.0 then invalid_arg "Stats.percentile: p out of range";
  let sorted = Array.sub t.data 0 t.size in
  Array.sort Float.compare sorted;
  let rank = int_of_float (ceil (p /. 100.0 *. float_of_int t.size)) - 1 in
  sorted.(max 0 (min (t.size - 1) rank))

let coefficient_of_variation t =
  let m = mean t in
  if m = 0.0 then 0.0 else stddev t /. m
