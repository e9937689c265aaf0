open Bench_stats

let close = Alcotest.float 1e-12

let test_median () =
  Alcotest.check close "odd" 2.0 (median [ 3.0; 1.0; 2.0 ]);
  Alcotest.check close "even" 2.5 (median [ 4.0; 1.0; 3.0; 2.0 ]);
  Alcotest.check close "one" 7.0 (median [ 7.0 ]);
  Alcotest.check_raises "empty" (Invalid_argument "Bench_stats.median: no samples")
    (fun () -> ignore (median []))

(* Reference values from Python's statistics.quantiles(xs, n=4). *)
let test_quartiles () =
  let q3 = Alcotest.(triple close close close) in
  Alcotest.check q3 "1..10" (2.75, 5.5, 8.25)
    (quartiles (List.init 10 (fun i -> float_of_int (i + 1))));
  Alcotest.check q3 "1..5" (1.5, 3.0, 4.5) (quartiles [ 5.0; 4.0; 3.0; 2.0; 1.0 ]);
  Alcotest.check q3 "two points extrapolate" (0.0, 3.0, 6.0) (quartiles [ 5.0; 1.0 ]);
  Alcotest.check q3 "four" (0.125, 0.25, 0.75) (quartiles [ 0.3; 0.1; 0.2; 0.9 ]);
  Alcotest.check close "iqr" 5.5 (iqr (List.init 10 (fun i -> float_of_int (i + 1))))

let verdict_t =
  Alcotest.of_pp (fun ppf v -> Format.pp_print_string ppf (verdict_name v))

let base = [ 1.00; 1.01; 0.99; 1.00; 1.02; 0.98; 1.00; 1.01; 0.99; 1.00 ]
let scale k = List.map (fun x -> x *. k) base

let test_verdict () =
  let v ?(better = Lower) ?(bound = 0.1) next = verdict ~better ~bound ~base ~next in
  Alcotest.check verdict_t "same samples" Unchanged (v base);
  Alcotest.check verdict_t "20% slower" Worse (v (scale 1.2));
  Alcotest.check verdict_t "20% slower, higher is better" Better
    (v ~better:Higher (scale 1.2));
  Alcotest.check verdict_t "5% slower, within bound" Unchanged (v (scale 1.05));
  Alcotest.check verdict_t "5% faster in every pair" Better (v (scale 0.95));
  (* Wins 8 of 10 pairs: short of nine in ten. *)
  let eight = List.mapi (fun i x -> if i < 2 then x *. 1.05 else x *. 0.95) base in
  Alcotest.check verdict_t "8 of 10 pairs" Unchanged (v eight);
  (* Faster in every pair, but by less than the parent's own IQR. *)
  Alcotest.check verdict_t "gap inside the IQR" Unchanged
    (v (List.map (fun x -> x -. 0.005) base));
  let wide = [ 1.0; 2.0; 1.0; 2.0; 1.0; 2.0 ] in
  Alcotest.check verdict_t "spread wider than bound" Unresolved
    (verdict ~better:Lower ~bound:0.1 ~base:wide ~next:wide);
  Alcotest.check verdict_t "wide, but every run better" Better
    (verdict ~better:Lower ~bound:0.1 ~base:wide ~next:[ 0.5; 0.6; 0.7 ]);
  Alcotest.check verdict_t "exact count moved" Worse
    (verdict ~better:Lower ~bound:0.0 ~base:[ 3.0; 3.0 ] ~next:[ 4.0; 4.0 ])

let () =
  Alcotest.run "bench_stats"
    [
      ( "stats",
        [
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "quartiles" `Quick test_quartiles;
          Alcotest.test_case "verdict" `Quick test_verdict;
        ] );
    ]
