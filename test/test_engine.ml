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
  let acc = ref 0 in
  for _ = 1 to n do
    acc := !acc + Rng.gaussian_int r ~mu:10_000.0 ~sigma:2_000.0
  done;
  let mean = float_of_int !acc /. float_of_int n in
  check_bool "gaussian mean near mu" true
    (abs_float (mean -. 10_000.0) < 100.0)

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
  Sim.schedule_unit s ~at:30 (note "c");
  Sim.schedule_unit s ~at:10 (note "a");
  Sim.schedule_unit s ~at:20 (note "b");
  Sim.run s;
  Alcotest.(check (list string)) "time order" [ "a"; "b"; "c" ] (List.rev !log);
  check_int "clock at last event" 30 (Sim.now s)

let test_sim_fifo_ties () =
  let s = Sim.create () in
  let log = ref [] in
  for i = 0 to 4 do
    Sim.schedule_unit s ~at:5 (fun () -> log := i :: !log)
  done;
  Sim.run s;
  Alcotest.(check (list int)) "insertion order on ties" [ 0; 1; 2; 3; 4 ]
    (List.rev !log)

let test_sim_cancel () =
  let s = Sim.create () in
  let fired = ref false in
  let tm = Sim.timer s in
  Sim.arm s tm ~at:10 (fun () -> fired := true);
  Sim.disarm s tm;
  Sim.run s;
  check_bool "disarmed timer does not fire" false !fired;
  check_bool "nothing left" true (Sim.exhausted s)

let test_sim_schedule_from_event () =
  let s = Sim.create () in
  let times = ref [] in
  Sim.schedule_unit s ~at:5 (fun () ->
      Sim.schedule_unit s ~at:(Sim.now s + 7) (fun () ->
          times := Sim.now s :: !times));
  Sim.run s;
  Alcotest.(check (list int)) "nested schedule" [ 12 ] !times

let test_sim_past_rejected () =
  let s = Sim.create () in
  Sim.schedule_unit s ~at:10 ignore;
  Sim.run s;
  Alcotest.check_raises "past event"
    (Invalid_argument "Sim.schedule_unit: time 5 is in the past (now=10)")
    (fun () -> Sim.schedule_unit s ~at:5 ignore);
  Alcotest.check_raises "past timer"
    (Invalid_argument "Sim.arm: time 5 is in the past (now=10)")
    (fun () -> Sim.arm s (Sim.timer s) ~at:5 ignore)

let test_sim_until () =
  let s = Sim.create () in
  let count = ref 0 in
  let rec tick () =
    incr count;
    Sim.schedule_unit s ~at:(Sim.now s + 10) tick
  in
  Sim.schedule_unit s ~at:0 tick;
  Sim.run_until s 95;
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
          Sim.schedule_unit s ~at:d (fun () ->
              if Sim.now s < !last then ok := false;
              last := Sim.now s))
        delays;
      Sim.run s;
      !ok)

(* 300,000 events at one time: more than any per-time sequence field
   of fixed width holds, and they still fire in schedule order. *)
let test_sim_many_ties () =
  let s = Sim.create () in
  let n = 300_000 and next = ref 0 and ok = ref true in
  for i = 0 to n - 1 do
    Sim.schedule_unit s ~at:5 (fun () ->
        if i <> !next then ok := false;
        incr next)
  done;
  Sim.run s;
  check_int "all fired" n !next;
  check_bool "in schedule order" true !ok

(* ------------------------------------------------------------------ *)
(* Fast path: the indexed heap, timers and Sim counters.  The [wheel]
   tests are named for the 63-slot timer wheel the heap replaced; its
   page edges (63, 63^2 = 3969, 63^3 = 250047) are where an engine
   that buckets time fails first. *)

let edges = [| 62; 63; 64; 3_968; 3_969; 250_047 |]

let test_wheel_order () =
  let s = Sim.create () in
  let fired = ref [] in
  let times =
    List.sort compare ([ 1; 5; 100; 1_000_000 ] @ Array.to_list edges)
  in
  (* Armed latest first, so arm order is not deadline order. *)
  List.iter
    (fun at ->
      Sim.arm s (Sim.timer s) ~at (fun () -> fired := Sim.now s :: !fired))
    (List.rev times);
  Sim.run s;
  Alcotest.(check (list int)) "fires in deadline order" times
    (List.rev !fired);
  check_bool "drained" true (Sim.exhausted s)

let test_wheel_cancel_after_fire () =
  let s = Sim.create () in
  let tm = Sim.timer s in
  let count = ref 0 in
  Sim.arm s tm ~at:10 (fun () -> incr count);
  Sim.schedule_unit s ~at:20 ignore;
  Sim.run_until s 10;
  check_int "fired once" 1 !count;
  (* Disarming a timer whose callback already ran must be a no-op —
     twice over — and must not take the heap entry that moved into
     the fired timer's old slot. *)
  Sim.disarm s tm;
  Sim.disarm s tm;
  check_int "pending unaffected" 1 (Sim.pending s);
  (* The record stays reusable after the late disarms. *)
  Sim.arm s tm ~at:30 (fun () -> incr count);
  Sim.run s;
  check_int "re-armed record fires" 2 !count

let test_wheel_rearm_from_callback () =
  let s = Sim.create () in
  let tm = Sim.timer s in
  let fires = ref [] in
  (* The watchdog pattern: the callback re-arms its own (just-popped)
     record. *)
  let rec cb () =
    fires := Sim.now s :: !fires;
    if List.length !fires < 4 then Sim.arm_after s tm 70 cb
  in
  Sim.arm s tm ~at:70 cb;
  Sim.run s;
  Alcotest.(check (list int))
    "periodic re-arm from inside callback" [ 70; 140; 210; 280 ]
    (List.rev !fires);
  check_bool "drained" true (Sim.exhausted s)

let test_sim_pending_o1 () =
  let s = Sim.create () in
  Sim.schedule_unit s ~at:10 ignore;
  let t1 = Sim.timer s and t2 = Sim.timer s in
  Sim.arm s t1 ~at:20 ignore;
  Sim.arm s t2 ~at:30 ignore;
  check_int "three pending" 3 (Sim.pending s);
  Sim.disarm s t1;
  check_int "disarm decrements" 2 (Sim.pending s);
  Sim.disarm s t1;
  check_int "double disarm counted once" 2 (Sim.pending s);
  Sim.disarm s t2;
  check_int "second disarm decrements" 1 (Sim.pending s);
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
  check_int "arms counted" 1000 st.Sim.timer_arms;
  (* Timers are counted apart from one-shot events, and the periodic
     stream schedules none. *)
  check_int "no one-shot events" 0 st.Sim.heap_pushes

let prop_sim_pending_exact =
  QCheck.Test.make ~name:"pending stays exact under cancel/fire interleavings"
    ~count:200
    QCheck.(pair bool (list (pair (int_bound 100) (int_bound 7))))
    (fun (behind, spec) ->
      let n = List.length spec in
      if n = 0 then true
      else begin
        let s = Sim.create () in
        (* [behind]: a bounded run first leaves one timer pending at
           100, so the timers below join a heap that is not empty. *)
        let extra =
          if behind then begin
            Sim.arm s (Sim.timer s) ~at:100 ignore;
            Sim.run_until s 99;
            1
          end
          else 0
        in
        let timers = Array.init n (fun _ -> Sim.timer s) in
        (* 0 armed, 1 fired, 2 disarmed before it fired *)
        let state = Array.make n 0 in
        let fired = ref 0 and called_off = ref 0 and ok = ref true in
        List.iteri
          (fun i (at, victim_off) ->
            Sim.arm s timers.(i) ~at (fun () ->
                if state.(i) <> 0 then ok := false;
                state.(i) <- 1;
                incr fired;
                (* From inside a callback, disarm some timer — possibly
                   one already fired, possibly itself, possibly twice. *)
                let j = (i + victim_off) mod n in
                if state.(j) = 0 then begin
                  state.(j) <- 2;
                  incr called_off
                end;
                Sim.disarm s timers.(j);
                Sim.disarm s timers.(j)))
          spec;
        Sim.pending s = n + extra
        &&
        (Sim.run s;
         !ok && !fired + !called_off = n && Sim.pending s = 0 && Sim.exhausted s)
      end)

(* Sim against the reference model (test/sim_ref.ml) on one random
   sequence of operations: one-shot events, timers armed, disarmed
   (pending, fired, idle, twice) and re-armed, bounded runs to a
   horizon and to an event count.  An occurrence, when it fires, may
   itself schedule, arm (its own timer included) or disarm (itself
   included).  Both logs record every firing with its time, every
   refused arm, and [now] and [pending] after each operation; they
   must be equal. *)
type deadline = Delay of int | Edge of int

type sim_op =
  | Sched of deadline * sim_op (* the event's callback runs the op *)
  | Arm of int * deadline * sim_op
  | Disarm of int
  | Until of deadline
  | Run of int
  | Nop

let n_timers = 4

type engine = {
  e_now : unit -> int;
  e_pending : unit -> int;
  e_schedule : int -> (unit -> unit) -> unit;
  e_arm : int -> int -> (unit -> unit) -> unit;
  e_disarm : int -> unit;
  e_until : int -> unit;
  e_run : int -> unit;
}

let sim_engine () =
  let s = Sim.create () in
  let tms = Array.init n_timers (fun _ -> Sim.timer s) in
  {
    e_now = (fun () -> Sim.now s);
    e_pending = (fun () -> Sim.pending s);
    e_schedule = (fun at f -> Sim.schedule_unit s ~at f);
    e_arm = (fun i at f -> Sim.arm s tms.(i) ~at f);
    e_disarm = (fun i -> Sim.disarm s tms.(i));
    e_until = Sim.run_until s;
    e_run = (fun m -> Sim.run ~max_events:m s);
  }

let ref_engine () =
  let r = Sim_ref.create () in
  {
    e_now = (fun () -> Sim_ref.now r);
    e_pending = (fun () -> Sim_ref.pending r);
    e_schedule = (fun at f -> Sim_ref.schedule r ~at f);
    e_arm = (fun i at f -> Sim_ref.arm r i ~at f);
    e_disarm = Sim_ref.disarm r;
    e_until = Sim_ref.run_until r;
    e_run = (fun m -> Sim_ref.run ~max_events:m r);
  }

(* An edge deadline is absolute while it lies ahead, else that far
   past [now]. *)
let deadline_at now = function
  | Delay d -> now + d
  | Edge k -> if edges.(k) >= now then edges.(k) else now + edges.(k)

let drive e ops =
  let log = ref [] and next_id = ref 0 in
  let note fmt = Printf.ksprintf (fun l -> log := l :: !log) fmt in
  let rec exec = function
    | Sched (d, k) ->
        let id = !next_id in
        incr next_id;
        e.e_schedule (deadline_at (e.e_now ()) d) (fun () ->
            note "event %d at %d" id (e.e_now ());
            exec k)
    | Arm (i, d, k) -> (
        let id = !next_id in
        incr next_id;
        match
          e.e_arm i (deadline_at (e.e_now ()) d) (fun () ->
              note "timer %d (arm %d) at %d" i id (e.e_now ());
              exec k)
        with
        | () -> ()
        | exception Invalid_argument _ -> note "timer %d busy" i)
    | Disarm i -> e.e_disarm i
    | Until d -> e.e_until (deadline_at (e.e_now ()) d)
    | Run m -> e.e_run m
    | Nop -> ()
  in
  List.iter
    (fun op ->
      exec op;
      note "now %d, %d pending" (e.e_now ()) (e.e_pending ()))
    (ops @ [ Run max_int ]);
  List.rev !log

let rec show_op = function
  | Sched (d, k) -> Printf.sprintf "sched %s {%s}" (show_deadline d) (show_op k)
  | Arm (i, d, k) ->
      Printf.sprintf "arm %d %s {%s}" i (show_deadline d) (show_op k)
  | Disarm i -> Printf.sprintf "disarm %d" i
  | Until d -> Printf.sprintf "until %s" (show_deadline d)
  | Run m -> Printf.sprintf "run %d" m
  | Nop -> "nop"

and show_deadline = function
  | Delay d -> Printf.sprintf "+%d" d
  | Edge k -> Printf.sprintf "edge %d" edges.(k)

let sim_ops =
  let open QCheck in
  let deadline =
    Gen.frequency
      [
        (3, Gen.map (fun d -> Delay d) (Gen.int_bound 3));
        (4, Gen.map (fun d -> Delay d) (Gen.int_bound 200));
        (2, Gen.map (fun k -> Edge k) (Gen.int_bound (Array.length edges - 1)));
        (1, Gen.map (fun d -> Delay d) (Gen.int_bound 300_000));
      ]
  in
  let timer = Gen.int_bound (n_timers - 1) in
  (* What a firing does: no bounded run, since runs do not nest. *)
  let rec reaction depth =
    if depth = 0 then Gen.return Nop
    else
      Gen.frequency
        [
          (2, Gen.return Nop);
          (2, Gen.map2 (fun d k -> Sched (d, k)) deadline (reaction (depth - 1)));
          ( 3,
            Gen.map3
              (fun i d k -> Arm (i, d, k))
              timer deadline
              (reaction (depth - 1)) );
          (2, Gen.map (fun i -> Disarm i) timer);
        ]
  in
  let op =
    Gen.frequency
      [
        (3, Gen.map2 (fun d k -> Sched (d, k)) deadline (reaction 3));
        (4, Gen.map3 (fun i d k -> Arm (i, d, k)) timer deadline (reaction 3));
        (3, Gen.map (fun i -> Disarm i) timer);
        (2, Gen.map (fun d -> Until d) deadline);
        (1, Gen.map (fun m -> Run m) (Gen.int_bound 5));
      ]
  in
  make ~print:(Print.list show_op) Gen.(list_size (1 -- 80) op)

let prop_sim_matches_reference =
  QCheck.Test.make ~name:"sim agrees with the reference model" ~count:500
    sim_ops (fun ops -> drive (sim_engine ()) ops = drive (ref_engine ()) ops)

(* ------------------------------------------------------------------ *)
(* Coro *)

let test_coro_done () =
  match Coro.resume (Coro.create (fun () -> ())) with
  | Coro.Done -> ()
  | _ -> Alcotest.fail "expected Done"

let test_coro_consume_sequence () =
  let trace = ref [] in
  let co =
    Coro.create (fun () ->
        trace := "a" :: !trace;
        Coro.consume 10;
        trace := "b" :: !trace;
        Coro.consume 20;
        trace := "c" :: !trace)
  in
  Alcotest.(check (list string)) "create runs nothing" [] !trace;
  (match Coro.resume co with
  | Coro.Work -> (
      check_int "first owed" 10 (Coro.owed co);
      Alcotest.(check (list string)) "ran to first consume" [ "a" ]
        (List.rev !trace);
      match Coro.resume co with
      | Coro.Work -> (
          check_int "second owed" 20 (Coro.owed co);
          match Coro.resume co with
          | Coro.Done -> ()
          | _ -> Alcotest.fail "expected Done after second consume")
      | _ -> Alcotest.fail "expected second consume")
  | _ -> Alcotest.fail "expected first consume");
  Alcotest.(check (list string)) "full trace" [ "a"; "b"; "c" ]
    (List.rev !trace)

let test_coro_consume_zero_no_suspend () =
  match Coro.resume (Coro.create (fun () -> Coro.consume 0)) with
  | Coro.Done -> ()
  | _ -> Alcotest.fail "consume 0 must not suspend"

let test_coro_failure () =
  match Coro.resume (Coro.create (fun () -> failwith "boom")) with
  | Coro.Failed (Failure msg) -> Alcotest.(check string) "msg" "boom" msg
  | _ -> Alcotest.fail "expected Failed"

type _ Coro.Request.t +=
  | Double : int -> int Coro.Request.t
  | Ping : unit Coro.Request.t

let test_coro_request_reply () =
  let co =
    Coro.create (fun () ->
        let v = Coro.query (Double 21) in
        Coro.consume v)
  in
  match Coro.resume co with
  | Coro.Queried (Double n, k) -> (
      match k (2 * n) with
      | Coro.Work -> check_int "consumes the reply" 42 (Coro.owed co)
      | _ -> Alcotest.fail "expected consume of the reply")
  | _ -> Alcotest.fail "expected query"

(* Overhead, a unit request and a yield pause in the slot: each names
   its payload and resumes from [resume]. *)
let test_coro_slot_pauses () =
  let co =
    Coro.create (fun () ->
        Coro.overhead 7;
        Coro.request Ping;
        Coro.yield ();
        Coro.overhead 0)
  in
  (match Coro.resume co with
  | Coro.Overhead -> check_int "overhead owed" 7 (Coro.owed co)
  | _ -> Alcotest.fail "expected overhead");
  (match Coro.resume co with
  | Coro.Requested -> (
      match Coro.pending co with
      | Ping -> ()
      | _ -> Alcotest.fail "expected Ping pending")
  | _ -> Alcotest.fail "expected request");
  (match Coro.resume co with
  | Coro.Yielded -> ()
  | _ -> Alcotest.fail "expected yield");
  match Coro.resume co with
  | Coro.Done -> ()
  | _ -> Alcotest.fail "overhead 0 must not suspend"

let test_coro_outside_raises () =
  Alcotest.check_raises "consume outside" Coro.Not_in_coroutine (fun () ->
      Coro.consume 5)

let test_coro_negative_consume () =
  match Coro.resume (Coro.create (fun () -> Coro.consume (-1))) with
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
  Alcotest.check_raises "empty"
    (Invalid_argument "Stats.percentile: empty series")
    (fun () -> ignore (Stats.percentile s 50.0))

(* [add_int] records without boxing a float: the words a longer run
   adds, per extra sample, stay near zero.  The difference of two run
   lengths cancels the small arrays of the first doublings; the large
   ones go straight to the major heap.  A boxed float per sample would
   read 2 words. *)
let test_stats_add_int_words () =
  let words n =
    let s = Stats.create () in
    let w0 = Gc.minor_words () in
    for i = 1 to n do
      Stats.add_int s i
    done;
    Gc.minor_words () -. w0
  in
  let per = (words 200_000 -. words 100_000) /. 100_000.0 in
  check_bool
    (Printf.sprintf "%.3f minor words per sample <= 0.5" per)
    true (per <= 0.5)

let prop_stats_mean_bounded =
  QCheck.Test.make ~name:"mean lies within [min,max]" ~count:200
    QCheck.(list_of_size Gen.(1 -- 50) (float_bound_exclusive 1000.0))
    (fun xs ->
      let s = Stats.create () in
      List.iter (Stats.add s) xs;
      let m = Stats.mean s in
      m >= Stats.min_value s -. 1e-9 && m <= Stats.max_value s +. 1e-9)

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
          Alcotest.test_case "300,000 events at one time" `Quick
            test_sim_many_ties;
          q prop_sim_monotonic_clock;
        ] );
      ( "fastpath",
        [
          Alcotest.test_case "timer wheel order" `Quick test_wheel_order;
          Alcotest.test_case "wheel cancel after fire" `Quick
            test_wheel_cancel_after_fire;
          Alcotest.test_case "wheel re-arm from callback" `Quick
            test_wheel_rearm_from_callback;
          Alcotest.test_case "pending is exact" `Quick test_sim_pending_o1;
          Alcotest.test_case "timer stats" `Quick test_sim_timer_stats;
          q prop_sim_pending_exact;
          q prop_sim_matches_reference;
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
          Alcotest.test_case "slot pauses" `Quick test_coro_slot_pauses;
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
          Alcotest.test_case "add_int words per sample" `Quick
            test_stats_add_int_words;
          q prop_stats_mean_bounded;
        ] );
      ( "units",
        [
          Alcotest.test_case "roundtrip" `Quick test_units_roundtrip;
        ] );
    ]
