(* Order statistics over repeated measurements, and the rule that
   turns two sets of them into a verdict.

   Quartiles follow Python's [statistics.quantiles(xs, n=4)] (its
   default "exclusive" method) exactly, so spreads printed here and
   spreads computed by external tooling over the same samples agree. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Bench_stats.median: no samples"
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld = 0 then invalid_arg "Bench_stats.quartiles: no samples"
  else if ld = 1 then (a.(0), a.(0), a.(0))
  else
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.0
    in
    (q 1, q 2, q 3)

let iqr xs =
  let q1, _, q3 = quartiles xs in
  q3 -. q1

type direction = Lower | Higher

let direction_of_string = function
  | "lower" -> Some Lower
  | "higher" -> Some Higher
  | _ -> None

type verdict = Better | Worse | Unchanged | Unresolved

let verdict_name = function
  | Better -> "better"
  | Worse -> "worse"
  | Unchanged -> "unchanged"
  | Unresolved -> "unresolved"

(* [base] and [next] are the parent's and the change's samples of one
   metric; sample i of each forms a pair when the two sets were run
   interleaved.  [bound] is the share of the parent's median by which
   the metric may worsen before it counts as a regression.

   - When either side's own spread (IQR) exceeds the bound, nothing
     can be called unchanged: the verdict is unresolved, unless every
     run of the change beats every run of the parent.
   - Otherwise a median worse by more than the bound is worse.
   - A gain needs the change to win at least nine in ten pairs and a
     median gap wider than the parent's IQR. *)
let verdict ~better ~bound ~base ~next =
  let beats a b = match better with Lower -> a < b | Higher -> a > b in
  let mb = median base and mn = median next in
  let scale = Float.abs mb in
  let gap = match better with Lower -> mb -. mn | Higher -> mn -. mb in
  let base_iqr = iqr base in
  if Float.max base_iqr (iqr next) > bound *. scale then
    if List.for_all (fun n -> List.for_all (beats n) base) next then Better
    else Unresolved
  else if gap < -.(bound *. scale) then Worse
  else
    let rec pairs acc b n =
      match (b, n) with
      | x :: b, y :: n -> pairs ((x, y) :: acc) b n
      | _ -> acc
    in
    let ps = pairs [] base next in
    let wins = List.length (List.filter (fun (b, n) -> beats n b) ps) in
    if ps <> [] && 10 * wins >= 9 * List.length ps && gap > base_iqr then
      Better
    else Unchanged
