(* Tests for the deterministic fault-injection plan and the recovery
   machinery that rides above it. *)

module Plan = Iw_faults.Plan
module Counter = Iw_obs.Counter
module Obs = Iw_obs.Obs

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let fresh_obs () = Obs.create ~collect:true ()

(* ------------------------------------------------------------------ *)
(* The plan itself *)

let test_plan_deterministic () =
  let draw plan =
    let obs = fresh_obs () in
    List.init 200 (fun i ->
        Plan.fire plan obs ~kind:Plan.Ipi_drop ~cpu:0 ~ts:i)
  in
  let a = draw (Plan.create ~rate:0.3 ~seed:42 ()) in
  let b = draw (Plan.create ~rate:0.3 ~seed:42 ()) in
  Alcotest.(check (list bool)) "same seed, same schedule" a b;
  let c = draw (Plan.create ~rate:0.3 ~seed:43 ()) in
  check_bool "different seed, different schedule" true (a <> c)

let test_plan_disabled_never_fires () =
  let obs = fresh_obs () in
  let plan = Plan.disabled in
  for i = 1 to 500 do
    List.iter
      (fun k ->
        check_bool "disabled plan is inert" false
          (Plan.fire plan obs ~kind:k ~cpu:0 ~ts:i))
      Plan.all_kinds
  done;
  check_int "nothing counted" 0
    (Counter.get (Obs.total_counters obs) Counter.Fault_injected)

let test_plan_rate_extremes () =
  let obs = fresh_obs () in
  let always = Plan.create ~rate:1.0 ~seed:1 () in
  let never = Plan.create ~rate:0.0 ~seed:1 () in
  for i = 1 to 100 do
    check_bool "rate 1 always fires" true
      (Plan.fire always obs ~kind:Plan.Cpu_stall ~cpu:0 ~ts:i);
    check_bool "rate 0 never fires" false
      (Plan.fire never obs ~kind:Plan.Cpu_stall ~cpu:0 ~ts:i)
  done;
  check_int "every fire observed" 100
    (Counter.get (Obs.total_counters obs) Counter.Fault_injected);
  check_int "plan tallies its own injections" 100 (Plan.injected always);
  check_int "rate-0 plan injected nothing" 0 (Plan.injected never)

let test_plan_unarmed_kind_inert () =
  let obs = fresh_obs () in
  let plan = Plan.create ~kinds:[ Plan.Ipi_drop ] ~rate:1.0 ~seed:9 () in
  check_bool "armed kind fires" true
    (Plan.fire plan obs ~kind:Plan.Ipi_drop ~cpu:0 ~ts:0);
  check_bool "unarmed kind never fires" false
    (Plan.fire plan obs ~kind:Plan.Timer_miss ~cpu:0 ~ts:0);
  check_int "only the armed fire counted" 1 (Plan.injected plan)

let test_plan_kind_names_roundtrip () =
  List.iter
    (fun k ->
      match Plan.kind_of_string (Plan.kind_name k) with
      | Some k' -> check_bool "roundtrip" true (k = k')
      | None -> Alcotest.fail ("no roundtrip for " ^ Plan.kind_name k))
    Plan.all_kinds;
  check_bool "unknown spelling rejected" true
    (Plan.kind_of_string "cosmic-ray" = None)

let test_plan_kind_listing_complete () =
  (* [all_kinds] is what `faults --list-kinds` prints, so it must cover
     every constructor: one entry per index in [0, kind_count), no
     repeats, and a distinct name for each. *)
  check_int "one entry per constructor" Plan.kind_count
    (List.length Plan.all_kinds);
  let seen = Array.make Plan.kind_count false in
  List.iter
    (fun k ->
      let i = Plan.kind_index k in
      check_bool "index in range" true (i >= 0 && i < Plan.kind_count);
      check_bool "no repeated constructor" false seen.(i);
      seen.(i) <- true)
    Plan.all_kinds;
  let names = List.map Plan.kind_name Plan.all_kinds in
  check_int "names are distinct" (List.length names)
    (List.length (List.sort_uniq compare names));
  (* The NIC kinds this PR appended are listed. *)
  List.iter
    (fun n -> check_bool (n ^ " listed") true (List.mem n names))
    [ "nic-rx-drop"; "nic-irq-lost"; "nic-ring-overrun" ]

let test_plan_brownout_draw_bounded () =
  (* Severity draws are deterministic per seed and stay inside the
     documented envelope: slowdown 2.0-4.0x (x1000), duration in
     [1/2, 3/2] of the 1.5M-cycle brownout timescale. *)
  let draw seed =
    let plan = Plan.create ~rate:0.5 ~seed () in
    List.init 200 (fun _ -> Plan.draw_brownout plan)
  in
  let a = draw 42 in
  Alcotest.(check (list (pair int int))) "same seed, same severities" a (draw 42);
  check_bool "different seed, different severities" true (a <> draw 43);
  List.iter
    (fun (slow_x1000, dur) ->
      check_bool "slowdown in [2x,4x]" true
        (slow_x1000 >= 2_000 && slow_x1000 <= 4_000);
      check_bool "duration in [half, 1.5x]" true
        (dur >= 750_000 && dur <= 2_250_000))
    a

let test_plan_hang_permanence_deterministic () =
  let draw seed =
    let plan = Plan.create ~rate:0.5 ~seed () in
    List.init 400 (fun _ -> Plan.draw_hang_permanent plan)
  in
  let a = draw 42 in
  Alcotest.(check (list bool)) "same seed, same permanence" a (draw 42);
  (* roughly a quarter permanent: sanity, not statistics *)
  let perm = List.length (List.filter Fun.id a) in
  check_bool "some permanent, most clocked" true (perm > 25 && perm < 175)

let test_plan_rejects_bad_rate () =
  List.iter
    (fun rate ->
      match Plan.create ~rate ~seed:1 () with
      | _ -> Alcotest.fail "rate outside [0,1] accepted"
      | exception Invalid_argument _ -> ())
    [ -0.1; 1.5 ];
  (* NaN fails every comparison, so a range test must not let it by. *)
  Alcotest.check_raises "NaN rate"
    (Invalid_argument "Plan.create: rate must be in [0,1]") (fun () ->
      ignore (Plan.create ~rate:Float.nan ~seed:1 ()))

let test_plan_ambient_scoping () =
  check_bool "default ambient is disabled" false
    (Plan.enabled (Plan.ambient ()));
  let plan = Plan.create ~rate:0.1 ~seed:5 () in
  Plan.with_ambient plan (fun () ->
      check_bool "ambient inside scope" true (Plan.ambient () == plan));
  check_bool "restored after scope" false (Plan.enabled (Plan.ambient ()));
  (try
     Plan.with_ambient plan (fun () -> failwith "boom")
   with Failure _ -> ());
  check_bool "restored after raise" false (Plan.enabled (Plan.ambient ()))

(* ------------------------------------------------------------------ *)
(* Recovery machinery above the plan *)

let test_wasp_relaunch_bounded () =
  let obs = fresh_obs () in
  Obs.with_ambient obs (fun () ->
      (* Every launch dies: the retry loop must give up after its cap
         and still return a served call, just slower. *)
      let plan = Plan.create ~kinds:[ Plan.Virtine_fail ] ~rate:1.0 ~seed:2 () in
      let clean =
        let t = Iw_virtine.Wasp.create Iw_virtine.Wasp.default in
        Iw_virtine.Wasp.call t ~work_us:50.0
      in
      let faulted =
        Plan.with_ambient plan (fun () ->
            let t = Iw_virtine.Wasp.create Iw_virtine.Wasp.default in
            Iw_virtine.Wasp.call t ~work_us:50.0)
      in
      check_bool "retries cost latency" true (faulted > clean);
      check_int "bounded retries" 3
        (Counter.get (Obs.total_counters obs) Counter.Virtine_relaunch))

let test_carat_rollback_preserves_region () =
  let obs = fresh_obs () in
  Obs.with_ambient obs (fun () ->
      let rt = Iw_carat.Runtime.create () in
      let hooks = Iw_carat.Runtime.hooks rt in
      let base =
        Option.get (hooks.Iw_ir.Interp.extern "malloc" [ 64 ])
      in
      let live = Iw_carat.Runtime.live_words rt in
      let plan =
        Plan.create ~kinds:[ Plan.Move_interrupt ] ~rate:1.0 ~seed:6 ()
      in
      Plan.with_ambient plan (fun () ->
          check_bool "interrupted move rolls back" true
            (Iw_carat.Runtime.move_region rt ~base = None));
      check_int "one rollback" 1 (Iw_carat.Runtime.rollbacks rt);
      check_int "no move recorded" 0 (Iw_carat.Runtime.moves rt);
      check_int "region intact" live (Iw_carat.Runtime.live_words rt);
      (* The quarantined destination was freed: a clean retry finds
         room and completes. *)
      check_bool "later move succeeds" true
        (Iw_carat.Runtime.move_region rt ~base <> None);
      check_int "rollback count unchanged" 1 (Iw_carat.Runtime.rollbacks rt))

let () =
  Alcotest.run "faults"
    [
      ( "plan",
        [
          Alcotest.test_case "deterministic per seed" `Quick
            test_plan_deterministic;
          Alcotest.test_case "disabled never fires" `Quick
            test_plan_disabled_never_fires;
          Alcotest.test_case "rate extremes" `Quick test_plan_rate_extremes;
          Alcotest.test_case "unarmed kind inert" `Quick
            test_plan_unarmed_kind_inert;
          Alcotest.test_case "kind names roundtrip" `Quick
            test_plan_kind_names_roundtrip;
          Alcotest.test_case "kind listing complete" `Quick
            test_plan_kind_listing_complete;
          Alcotest.test_case "brownout draw bounded" `Quick
            test_plan_brownout_draw_bounded;
          Alcotest.test_case "hang permanence deterministic" `Quick
            test_plan_hang_permanence_deterministic;
          Alcotest.test_case "bad rate rejected" `Quick
            test_plan_rejects_bad_rate;
          Alcotest.test_case "ambient scoping" `Quick test_plan_ambient_scoping;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "wasp relaunch bounded" `Quick
            test_wasp_relaunch_bounded;
          Alcotest.test_case "carat rollback preserves region" `Quick
            test_carat_rollback_preserves_region;
        ] );
    ]
