type summary = {
  n : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  p50 : float;
  p90 : float;
  p99 : float;
}

type t = { mutable data : float array; mutable size : int }

let create () = { data = [||]; size = 0 }

let add t x =
  if t.size = Array.length t.data then begin
    let cap = max 16 (2 * Array.length t.data) in
    let data = Array.make cap 0.0 in
    Array.blit t.data 0 data 0 t.size;
    t.data <- data
  end;
  t.data.(t.size) <- x;
  t.size <- t.size + 1

let add_int t x = add t (float_of_int x)

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

(* Nearest-rank percentile over an already-sorted copy of the samples. *)
let percentile_sorted sorted p =
  let n = Array.length sorted in
  if p < 0.0 || p > 100.0 then invalid_arg "Stats.percentile: p out of range";
  let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) - 1 in
  sorted.(max 0 (min (n - 1) rank))

let sorted_samples t =
  let sorted = Array.sub t.data 0 t.size in
  Array.sort Float.compare sorted;
  sorted

let percentile t p =
  require_nonempty t "percentile";
  percentile_sorted (sorted_samples t) p

let summary t =
  require_nonempty t "summary";
  let sorted = sorted_samples t in
  {
    n = t.size;
    mean = mean t;
    stddev = stddev t;
    min = min_value t;
    max = max_value t;
    p50 = percentile_sorted sorted 50.0;
    p90 = percentile_sorted sorted 90.0;
    p99 = percentile_sorted sorted 99.0;
  }

let coefficient_of_variation t =
  let m = mean t in
  if m = 0.0 then 0.0 else stddev t /. m

let samples t = Array.sub t.data 0 t.size

module Counters = struct
  type nonrec t = (string, int ref) Hashtbl.t

  let create () : t = Hashtbl.create 32

  let cell t name =
    match Hashtbl.find_opt t name with
    | Some c -> c
    | None ->
        let c = ref 0 in
        Hashtbl.add t name c;
        c

  let add t name k =
    let c = cell t name in
    c := !c + k

  let incr t name = add t name 1

  let get t name = match Hashtbl.find_opt t name with Some c -> !c | None -> 0

  let to_list t =
    Hashtbl.fold (fun name c acc -> (name, !c) :: acc) t []
    |> List.sort (fun (a, _) (b, _) -> compare a b)

  let reset t = Hashtbl.reset t
end
