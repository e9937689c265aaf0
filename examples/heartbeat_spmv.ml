(* Heartbeat scheduling (TPAL, SecIV-B): run the spmv benchmark under
   both signal mechanisms and compare achieved heartbeat fidelity.

     dune exec examples/heartbeat_spmv.exe *)

open Iw_heartbeat

let () =
  let plat = Iw_hw.Platform.knl in
  Printf.printf
    "spmv under heartbeat scheduling, 16 workers, heart-rate sweep\n\n";
  Printf.printf "%-10s %6s | %9s %9s %6s | %6s %9s\n" "os" "hb(us)"
    "target-Hz" "actual-Hz" "cv" "ovh" "speedup";
  List.iter
    (fun hb ->
      List.iter
        (fun driver ->
          let r =
            Tpal.run plat { workers = 16; heartbeat_us = hb; driver; seed = 11 }
              Tpal.spmv
          in
          Printf.printf "%-10s %6.0f | %9.0f %9.0f %6.3f | %5.1f%% %9.2f\n" r.os
            hb r.target_rate_hz r.achieved_rate_hz r.rate_cv r.overhead_pct
            r.speedup_vs_serial)
        [ Tpal.Nk_ipi; Tpal.Linux_signal ])
    [ 100.0; 20.0 ];
  print_newline ();
  print_endline
    "The Nautilus IPI broadcast tracks the target at both rates with";
  print_endline
    "near-zero jitter; the Linux signal chain falls behind at 20us and";
  print_endline "wobbles (cv) even at 100us - the Figure 3 story.";
  print_newline ();
  (* Nested fork-join: the promote-oldest rule in action. *)
  Printf.printf "nested fork-join (fib tree), 16 workers:\n";
  List.iter
    (fun (policy, name) ->
      let r =
        Tpal.Tree.run plat
          { workers = 16; heartbeat_us = 30.0; policy; seed = 4 }
          (Tpal.Tree.fib 22)
      in
      Printf.printf "  %-16s promotions=%4d steals=%4d speedup=%5.2f\n" name
        r.promotions r.steals r.speedup_vs_serial)
    [
      (Tpal.Tree.Promote_oldest, "promote-oldest");
      (Tpal.Tree.Promote_newest, "promote-newest");
    ]
