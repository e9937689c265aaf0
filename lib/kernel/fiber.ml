open Iw_engine

type mode =
  | Cooperative
  | Compiler_timed of { period : int; check_interval : int; check_cost : int }

(* A fiber's continuation sits in its coroutine's slot; [owed] is what
   it is still owed of its last work pause when it was preempted. *)
type fiber = { co : Coro.t; mutable owed : int }

type t = {
  mode : mode;
  obs : Iw_obs.Obs.t;
  switch_cycles : int;
  q : fiber Queue.t;
  mutable since_check : int;  (* work cycles since last timing call *)
  mutable last_switch : int;  (* virtual time of the last switch *)
}

let create plat ~mode ~fp =
  let c = plat.Iw_hw.Platform.costs in
  let switch_cycles =
    c.fiber_switch_base + if fp then c.fiber_fp_save + c.fiber_fp_restore else 0
  in
  (match mode with
  | Cooperative -> ()
  | Compiler_timed { period; check_interval; check_cost } ->
      if period <= 0 || check_interval <= 0 || check_cost < 0 then
        invalid_arg "Fiber.create: bad compiler-timed parameters");
  {
    mode;
    obs = Iw_obs.Obs.inherit_trace ();
    switch_cycles;
    q = Queue.create ();
    since_check = 0;
    last_switch = 0;
  }

let spawn t body =
  let f = { co = Coro.create body; owed = 0 } in
  Queue.push f t.q;
  f

let yield () = Coro.yield ()

let switch_cost t = t.switch_cycles
let count t id = Iw_obs.Counter.get t.obs.Iw_obs.Obs.counters id
let switches t = count t Iw_obs.Counter.Fiber_switches
let timing_checks t = count t Iw_obs.Counter.Timing_checks

let pay_switch t =
  Iw_obs.Counter.incr t.obs.Iw_obs.Obs.counters Iw_obs.Counter.Fiber_switches;
  Coro.consume t.switch_cycles;
  t.last_switch <- Api.now ();
  let tr = t.obs.Iw_obs.Obs.trace in
  if tr.Iw_obs.Trace.enabled then
    Iw_obs.Trace.instant tr ~name:"fiber_switch" ~cat:"fiber" ~cpu:(-1)
      ~ts:t.last_switch ()

(* Burn [n] fiber-work cycles in carrier-thread context.  Under
   compiler timing, interleave the injected timing calls and preempt
   the fiber when the period has elapsed and another fiber waits.
   Returns [None] when the full quantum was burned, [Some remaining]
   when the fiber was preempted. *)
let burn t n =
  match t.mode with
  | Cooperative ->
      Coro.consume n;
      None
  | Compiler_timed { period; check_interval; check_cost } ->
      let rec go n =
        if n <= 0 then None
        else begin
          let until_check = check_interval - t.since_check in
          if n < until_check then begin
            Coro.consume n;
            t.since_check <- t.since_check + n;
            None
          end
          else begin
            Coro.consume until_check;
            t.since_check <- 0;
            Iw_obs.Counter.incr t.obs.Iw_obs.Obs.counters
              Iw_obs.Counter.Timing_checks;
            Coro.consume check_cost;
            let n = n - until_check in
            let due = Api.now () - t.last_switch >= period in
            if due && not (Queue.is_empty t.q) then Some n else go n
          end
        end
      in
      go n

let run t =
  t.last_switch <- Api.now ();
  let requeue f owed =
    f.owed <- owed;
    Queue.push f t.q
  in
  let rec loop () =
    match Queue.take_opt t.q with
    | None -> ()
    | Some f ->
        grant f f.owed;
        loop ()
  and grant f owed =
    match burn t owed with
    | None -> exec f (Coro.resume f.co)
    | Some remaining ->
        pay_switch t;
        requeue f remaining
  and exec f (status : Coro.status) =
    match status with
    | Coro.Done -> ()
    | Coro.Failed e -> raise e
    | Coro.Work -> grant f (Coro.owed f.co)
    | Coro.Yielded ->
        if Queue.is_empty t.q then exec f (Coro.resume f.co)
        else begin
          pay_switch t;
          requeue f 0
        end
    (* Pass overhead and kernel requests through the carrier thread. *)
    | Coro.Overhead ->
        Coro.overhead (Coro.owed f.co);
        exec f (Coro.resume f.co)
    | Coro.Requested ->
        Coro.request (Coro.pending f.co);
        exec f (Coro.resume f.co)
    | Coro.Queried (q, k) -> exec f (k (Coro.query q))
  in
  loop ()
