(* Unit and property tests for the simulation core. *)

open Iw_engine

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Rng *)

let test_rng_determinism () =
  let a = Rng.create ~seed:7 and b = Rng.create ~seed:7 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_split_independence () =
  let a = Rng.create ~seed:7 in
  let c = Rng.split a in
  let x = Rng.bits64 c in
  (* Drawing more from [a] must not change what [c] already produced. *)
  let a2 = Rng.create ~seed:7 in
  let c2 = Rng.split a2 in
  ignore (Rng.bits64 a2);
  Alcotest.(check int64) "split stream stable" x (Rng.bits64 c2 |> fun _ -> x)

(* The production Rng carries splitmix64 state as two 32-bit int limbs
   to keep draws box-free.  Check it bit-for-bit against a direct
   Int64 transcription of the algorithm, across seeds (including
   negative), splits, and every derived draw. *)
module Rng_ref = struct
  type t = { mutable state : int64 }

  let gamma = 0x9E3779B97F4A7C15L

  let mix z =
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
    Int64.logxor z (Int64.shift_right_logical z 31)

  let create ~seed = { state = Int64.of_int seed }

  let bits64 t =
    t.state <- Int64.add t.state gamma;
    mix t.state

  let split t = { state = bits64 t }
  let int t bound = Int64.to_int (Int64.shift_right_logical (bits64 t) 2) mod bound

  let float t bound =
    bound
    *. (float_of_int (Int64.to_int (Int64.shift_right_logical (bits64 t) 11))
       /. 9007199254740992.0)

  let bool t = Int64.logand (bits64 t) 1L = 1L
end

let test_rng_limbs_vs_int64_reference () =
  List.iter
    (fun seed ->
      let r = Rng.create ~seed and q = Rng_ref.create ~seed in
      for _ = 1 to 500 do
        Alcotest.(check int64) "bits64" (Rng_ref.bits64 q) (Rng.bits64 r)
      done;
      let r = Rng.split r and q = Rng_ref.split q in
      for _ = 1 to 200 do
        check_int "int" (Rng_ref.int q 9973) (Rng.int r 9973);
        Alcotest.(check (float 0.0)) "float" (Rng_ref.float q 1.0) (Rng.float r 1.0);
        check_bool "bool" (Rng_ref.bool q) (Rng.bool r)
      done;
      (* raw53 is float's mantissa source; raw62 is int's modulo source *)
      check_int "raw53"
        (Int64.to_int (Int64.shift_right_logical (Rng_ref.bits64 q) 11))
        (Rng.raw53 r);
      check_int "raw62"
        (Int64.to_int (Int64.shift_right_logical (Rng_ref.bits64 q) 2))
        (Rng.raw62 r))
    [ 0; 1; 42; 0x5E21CE; -1; -123456789; max_int; min_int ]

let test_rng_bounds () =
  let r = Rng.create ~seed:11 in
  for _ = 1 to 1000 do
    let x = Rng.int r 17 in
    check_bool "in range" true (x >= 0 && x < 17);
    let f = Rng.float r 2.5 in
    check_bool "float in range" true (f >= 0.0 && f < 2.5)
  done

let test_rng_gaussian_moments () =
  let r = Rng.create ~seed:3 in
  let n = 20_000 in
  let acc = ref 0.0 in
  for _ = 1 to n do
    acc := !acc +. Rng.gaussian r ~mu:10.0 ~sigma:2.0
  done;
  let mean = !acc /. float_of_int n in
  check_bool "gaussian mean near mu" true (abs_float (mean -. 10.0) < 0.1)

let test_rng_shuffle_permutation () =
  let r = Rng.create ~seed:5 in
  let a = Array.init 50 Fun.id in
  Rng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 Fun.id) sorted

(* ------------------------------------------------------------------ *)
(* Sim *)

let test_sim_event_order () =
  let s = Sim.create () in
  let log = ref [] in
  let note tag () = log := tag :: !log in
  ignore (Sim.schedule s ~at:30 (note "c"));
  ignore (Sim.schedule s ~at:10 (note "a"));
  ignore (Sim.schedule s ~at:20 (note "b"));
  Sim.run s;
  Alcotest.(check (list string)) "time order" [ "a"; "b"; "c" ] (List.rev !log);
  check_int "clock at last event" 30 (Sim.now s)

let test_sim_fifo_ties () =
  let s = Sim.create () in
  let log = ref [] in
  for i = 0 to 4 do
    ignore (Sim.schedule s ~at:5 (fun () -> log := i :: !log))
  done;
  Sim.run s;
  Alcotest.(check (list int)) "insertion order on ties" [ 0; 1; 2; 3; 4 ]
    (List.rev !log)

let test_sim_cancel () =
  let s = Sim.create () in
  let fired = ref false in
  let ev = Sim.schedule s ~at:10 (fun () -> fired := true) in
  Sim.cancel ev;
  Sim.run s;
  check_bool "cancelled event does not fire" false !fired;
  check_bool "marked cancelled" true (Sim.cancelled ev)

let test_sim_schedule_from_event () =
  let s = Sim.create () in
  let times = ref [] in
  ignore
    (Sim.schedule s ~at:5 (fun () ->
         ignore
           (Sim.schedule s ~at:(Sim.now s + 7) (fun () ->
                times := Sim.now s :: !times))));
  Sim.run s;
  Alcotest.(check (list int)) "nested schedule" [ 12 ] !times

let test_sim_past_rejected () =
  let s = Sim.create () in
  ignore (Sim.schedule s ~at:10 (fun () -> ()));
  Sim.run s;
  Alcotest.check_raises "past" (Invalid_argument
    "Sim.schedule: time 5 is in the past (now=10)")
    (fun () -> ignore (Sim.schedule s ~at:5 (fun () -> ())))

let test_sim_until () =
  let s = Sim.create () in
  let count = ref 0 in
  let rec tick () =
    incr count;
    ignore (Sim.schedule s ~at:(Sim.now s + 10) tick)
  in
  ignore (Sim.schedule s ~at:0 tick);
  Sim.run ~until:95 s;
  (* Fires at 0,10,...,90: 10 events. *)
  check_int "bounded by horizon" 10 !count

let prop_sim_monotonic_clock =
  QCheck.Test.make ~name:"virtual clock is monotonic" ~count:100
    QCheck.(list (int_bound 1000))
    (fun delays ->
      let s = Sim.create () in
      let ok = ref true in
      let last = ref 0 in
      List.iter
        (fun d ->
          ignore
            (Sim.schedule s ~at:d (fun () ->
                 if Sim.now s < !last then ok := false;
                 last := Sim.now s)))
        delays;
      Sim.run s;
      !ok)

(* ------------------------------------------------------------------ *)
(* Fast path: Ekey, Int_heap, Timer_wheel, Sim counters *)

let test_ekey_roundtrip () =
  List.iter
    (fun (time, seq) ->
      let k = Ekey.pack ~time ~seq in
      check_int "time" time (Ekey.time k);
      check_int "seq" seq (Ekey.seq k))
    [ (0, 0); (1, Ekey.seq_limit - 1); (Ekey.max_time, 0); (123_456_789, 42) ];
  (match Ekey.pack ~time:(-1) ~seq:0 with
  | _ -> Alcotest.fail "negative time accepted"
  | exception Invalid_argument _ -> ());
  match Ekey.pack ~time:0 ~seq:Ekey.seq_limit with
  | _ -> Alcotest.fail "overflowing seq accepted"
  | exception Invalid_argument _ -> ()

let prop_int_heap_sorts =
  QCheck.Test.make ~name:"int heap drains in sorted order" ~count:200
    QCheck.(list small_signed_int)
    (fun keys ->
      (* Tiny initial capacity so growth is exercised too. *)
      let h = Int_heap.create ~capacity:2 ~dummy:min_int () in
      List.iter (fun k -> Int_heap.push h k k) keys;
      let rec drain acc =
        if Int_heap.is_empty h then List.rev acc
        else begin
          let k = Int_heap.min_key h in
          let v = Int_heap.pop h in
          if v <> k then List.rev (max_int :: acc) else drain (k :: acc)
        end
      in
      drain [] = List.sort compare keys)

let test_wheel_order () =
  let w = Timer_wheel.create () in
  let fired = ref [] in
  (* Deadlines straddling slot and level boundaries (63^1, 63^2, 63^3). *)
  let times = [ 1; 5; 62; 63; 64; 100; 3968; 3969; 250_047; 1_000_000 ] in
  List.iteri
    (fun i at ->
      let tm = Timer_wheel.make_timer () in
      Timer_wheel.arm w tm
        ~key:(Ekey.pack ~time:at ~seq:i)
        (fun () -> fired := at :: !fired))
    times;
  let rec drain () =
    let code = Timer_wheel.peek w in
    if code = Timer_wheel.advance_over then begin
      Timer_wheel.advance w (Timer_wheel.boundary w);
      drain ()
    end
    else if code = Timer_wheel.fire then begin
      let tm = Timer_wheel.due w in
      Timer_wheel.advance w (Ekey.time (Timer_wheel.key tm));
      let cb = Timer_wheel.callback tm in
      Timer_wheel.take w tm;
      cb ();
      drain ()
    end
  in
  drain ();
  Alcotest.(check (list int)) "fires in deadline order"
    (List.sort compare times) (List.rev !fired);
  check_int "wheel drained" 0 (Timer_wheel.live w)

let drain_wheel w =
  let rec go () =
    let code = Timer_wheel.peek w in
    if code = Timer_wheel.advance_over then begin
      Timer_wheel.advance w (Timer_wheel.boundary w);
      go ()
    end
    else if code = Timer_wheel.fire then begin
      let tm = Timer_wheel.due w in
      Timer_wheel.advance w (Ekey.time (Timer_wheel.key tm));
      let cb = Timer_wheel.callback tm in
      Timer_wheel.take w tm;
      cb ();
      go ()
    end
  in
  go ()

let test_wheel_cancel_after_fire () =
  let w = Timer_wheel.create () in
  let tm = Timer_wheel.make_timer () in
  let count = ref 0 in
  Timer_wheel.arm w tm ~key:(Ekey.pack ~time:10 ~seq:0) (fun () -> incr count);
  drain_wheel w;
  check_int "fired once" 1 !count;
  check_bool "idle after fire" false (Timer_wheel.armed tm);
  (* Cancelling a timer whose callback already ran must be a no-op —
     twice over. *)
  Timer_wheel.cancel w tm;
  Timer_wheel.cancel w tm;
  check_int "live unaffected" 0 (Timer_wheel.live w);
  (* The record stays reusable after the late cancels. *)
  Timer_wheel.arm w tm ~key:(Ekey.pack ~time:20 ~seq:1) (fun () -> incr count);
  drain_wheel w;
  check_int "re-armed record fires" 2 !count

let test_wheel_rearm_from_callback () =
  let w = Timer_wheel.create () in
  let tm = Timer_wheel.make_timer () in
  let fires = ref [] in
  (* The watchdog pattern: the callback re-arms its own (just-taken)
     record.  Period 70 straddles the level-0 boundary, so cascading
     is exercised too. *)
  let rec cb () =
    fires := Timer_wheel.clock w :: !fires;
    if List.length !fires < 4 then
      Timer_wheel.arm w tm
        ~key:
          (Ekey.pack
             ~time:(Timer_wheel.clock w + 70)
             ~seq:(List.length !fires))
        cb
  in
  Timer_wheel.arm w tm ~key:(Ekey.pack ~time:70 ~seq:0) cb;
  drain_wheel w;
  Alcotest.(check (list int))
    "periodic re-arm from inside callback" [ 70; 140; 210; 280 ]
    (List.rev !fires);
  check_int "drained" 0 (Timer_wheel.live w)

let test_sim_pending_o1 () =
  let s = Sim.create () in
  let e1 = Sim.schedule s ~at:10 ignore in
  let _e2 = Sim.schedule s ~at:20 ignore in
  let tm = Sim.timer s in
  Sim.arm s tm ~at:30 ignore;
  check_int "three pending" 3 (Sim.pending s);
  Sim.cancel e1;
  check_int "cancel decrements" 2 (Sim.pending s);
  Sim.cancel e1;
  check_int "double cancel counted once" 2 (Sim.pending s);
  Sim.disarm s tm;
  check_int "disarm decrements" 1 (Sim.pending s);
  Sim.run s;
  check_int "drained" 0 (Sim.pending s);
  check_bool "exhausted" true (Sim.exhausted s)

let test_sim_timer_stats () =
  let s = Sim.create () in
  let tm = Sim.timer s in
  let count = ref 0 in
  let rec tick () =
    incr count;
    if !count < 1000 then Sim.arm_after s tm 10 tick
  in
  Sim.arm_after s tm 10 tick;
  Sim.run s;
  check_int "all ticks fired" 1000 !count;
  let st = Sim.stats s in
  check_int "timer fires counted" 1000 st.Sim.timer_fires;
  check_bool "arms counted" true (st.Sim.timer_arms >= 1000);
  (* The whole periodic stream lives on the wheel: the binary heap
     sees (almost) none of it. *)
  check_bool "heap traffic dropped" true (st.Sim.heap_pushes < 10)

let prop_sim_pending_exact =
  QCheck.Test.make ~name:"pending stays exact under cancel/fire interleavings"
    ~count:200
    QCheck.(list (pair (int_bound 100) (int_bound 7)))
    (fun spec ->
      let n = List.length spec in
      if n = 0 then true
      else begin
        let s = Sim.create () in
        let events = Array.make n None in
        let fired = ref 0 in
        List.iteri
          (fun i (at, victim_off) ->
            let ev =
              Sim.schedule s ~at (fun () ->
                  incr fired;
                  (* From inside a callback, cancel some other event —
                     possibly one already fired, possibly twice. *)
                  match events.((i + victim_off) mod n) with
                  | Some v ->
                      Sim.cancel v;
                      Sim.cancel v
                  | None -> ())
            in
            events.(i) <- Some ev)
          spec;
        Sim.pending s = n
        &&
        (Sim.run s;
         Sim.pending s = 0 && !fired <= n && Sim.exhausted s)
      end)

(* ------------------------------------------------------------------ *)
(* Coro *)

let test_coro_done () =
  match Coro.start (fun () -> ()) with
  | Coro.Done -> ()
  | _ -> Alcotest.fail "expected Done"

let test_coro_consume_sequence () =
  let trace = ref [] in
  let status =
    Coro.start (fun () ->
        trace := "a" :: !trace;
        Coro.consume 10;
        trace := "b" :: !trace;
        Coro.consume 20;
        trace := "c" :: !trace)
  in
  (match status with
  | Coro.Paused (Coro.Consumed (10, k1)) -> (
      Alcotest.(check (list string)) "ran to first consume" [ "a" ]
        (List.rev !trace);
      match k1 () with
      | Coro.Paused (Coro.Consumed (20, k2)) -> (
          match k2 () with
          | Coro.Done -> ()
          | _ -> Alcotest.fail "expected Done after second consume")
      | _ -> Alcotest.fail "expected second consume")
  | _ -> Alcotest.fail "expected first consume");
  Alcotest.(check (list string)) "full trace" [ "a"; "b"; "c" ]
    (List.rev !trace)

let test_coro_consume_zero_no_suspend () =
  match Coro.start (fun () -> Coro.consume 0) with
  | Coro.Done -> ()
  | _ -> Alcotest.fail "consume 0 must not suspend"

let test_coro_failure () =
  match Coro.start (fun () -> failwith "boom") with
  | Coro.Failed (Failure msg) -> Alcotest.(check string) "msg" "boom" msg
  | _ -> Alcotest.fail "expected Failed"

type _ Coro.Request.t += Double : int -> int Coro.Request.t

let test_coro_request_reply () =
  let status = Coro.start (fun () ->
      let v = Coro.request (Double 21) in
      Coro.consume v)
  in
  match status with
  | Coro.Paused (Coro.Requested (Double n, k)) -> (
      match k (2 * n) with
      | Coro.Paused (Coro.Consumed (42, _)) -> ()
      | _ -> Alcotest.fail "expected consume of the reply")
  | _ -> Alcotest.fail "expected request"

let test_coro_outside_raises () =
  Alcotest.check_raises "consume outside" Coro.Not_in_coroutine (fun () ->
      Coro.consume 5)

let test_coro_negative_consume () =
  match Coro.start (fun () -> Coro.consume (-1)) with
  | Coro.Failed (Invalid_argument _) -> ()
  | _ -> Alcotest.fail "expected Invalid_argument"

(* ------------------------------------------------------------------ *)
(* Stats *)

let test_stats_basic () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 1.0; 2.0; 3.0; 4.0 ];
  Alcotest.(check (float 1e-9)) "mean" 2.5 (Stats.mean s);
  Alcotest.(check (float 1e-9)) "min" 1.0 (Stats.min_value s);
  Alcotest.(check (float 1e-9)) "max" 4.0 (Stats.max_value s);
  check_int "count" 4 (Stats.count s)

let test_stats_percentile () =
  let s = Stats.create () in
  for i = 1 to 100 do
    Stats.add_int s i
  done;
  Alcotest.(check (float 1e-9)) "p50" 50.0 (Stats.percentile s 50.0);
  Alcotest.(check (float 1e-9)) "p99" 99.0 (Stats.percentile s 99.0);
  Alcotest.(check (float 1e-9)) "p100" 100.0 (Stats.percentile s 100.0)

let test_stats_empty_raises () =
  let s = Stats.create () in
  Alcotest.check_raises "empty" (Invalid_argument "Stats.summary: empty series")
    (fun () -> ignore (Stats.summary s))

let prop_stats_mean_bounded =
  QCheck.Test.make ~name:"mean lies within [min,max]" ~count:200
    QCheck.(list_of_size Gen.(1 -- 50) (float_bound_exclusive 1000.0))
    (fun xs ->
      let s = Stats.create () in
      List.iter (Stats.add s) xs;
      let m = Stats.mean s in
      m >= Stats.min_value s -. 1e-9 && m <= Stats.max_value s +. 1e-9)

let test_counters () =
  let c = Stats.Counters.create () in
  Stats.Counters.incr c "a";
  Stats.Counters.add c "a" 4;
  Stats.Counters.incr c "b";
  check_int "a" 5 (Stats.Counters.get c "a");
  check_int "b" 1 (Stats.Counters.get c "b");
  check_int "missing" 0 (Stats.Counters.get c "zzz");
  Alcotest.(check (list (pair string int)))
    "to_list sorted"
    [ ("a", 5); ("b", 1) ]
    (Stats.Counters.to_list c)

(* ------------------------------------------------------------------ *)
(* Units *)

let test_units_roundtrip () =
  let ghz = 1.3 in
  let c = Units.cycles_of_us ~ghz 100.0 in
  check_int "100us at 1.3GHz" 130_000 c;
  Alcotest.(check (float 1e-6)) "roundtrip" 100.0 (Units.us_of_cycles ~ghz c)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "engine"
    [
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "split independence" `Quick
            test_rng_split_independence;
          Alcotest.test_case "limbs vs int64 reference" `Quick
            test_rng_limbs_vs_int64_reference;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "gaussian moments" `Quick test_rng_gaussian_moments;
          Alcotest.test_case "shuffle is a permutation" `Quick
            test_rng_shuffle_permutation;
        ] );
      ( "sim",
        [
          Alcotest.test_case "event order" `Quick test_sim_event_order;
          Alcotest.test_case "fifo ties" `Quick test_sim_fifo_ties;
          Alcotest.test_case "cancel" `Quick test_sim_cancel;
          Alcotest.test_case "nested schedule" `Quick
            test_sim_schedule_from_event;
          Alcotest.test_case "past rejected" `Quick test_sim_past_rejected;
          Alcotest.test_case "run until" `Quick test_sim_until;
          q prop_sim_monotonic_clock;
        ] );
      ( "fastpath",
        [
          Alcotest.test_case "ekey roundtrip" `Quick test_ekey_roundtrip;
          q prop_int_heap_sorts;
          Alcotest.test_case "timer wheel order" `Quick test_wheel_order;
          Alcotest.test_case "wheel cancel after fire" `Quick
            test_wheel_cancel_after_fire;
          Alcotest.test_case "wheel re-arm from callback" `Quick
            test_wheel_rearm_from_callback;
          Alcotest.test_case "pending is exact" `Quick test_sim_pending_o1;
          Alcotest.test_case "timer stats" `Quick test_sim_timer_stats;
          q prop_sim_pending_exact;
        ] );
      ( "coro",
        [
          Alcotest.test_case "done" `Quick test_coro_done;
          Alcotest.test_case "consume sequence" `Quick
            test_coro_consume_sequence;
          Alcotest.test_case "consume zero" `Quick
            test_coro_consume_zero_no_suspend;
          Alcotest.test_case "failure" `Quick test_coro_failure;
          Alcotest.test_case "request reply" `Quick test_coro_request_reply;
          Alcotest.test_case "outside coroutine" `Quick
            test_coro_outside_raises;
          Alcotest.test_case "negative consume" `Quick
            test_coro_negative_consume;
        ] );
      ( "stats",
        [
          Alcotest.test_case "basic" `Quick test_stats_basic;
          Alcotest.test_case "percentile" `Quick test_stats_percentile;
          Alcotest.test_case "empty raises" `Quick test_stats_empty_raises;
          q prop_stats_mean_bounded;
          Alcotest.test_case "counters" `Quick test_counters;
        ] );
      ( "units",
        [
          Alcotest.test_case "roundtrip" `Quick test_units_roundtrip;
        ] );
    ]
