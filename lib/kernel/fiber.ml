open Iw_engine

type mode =
  | Cooperative
  | Compiler_timed of { period : int; check_interval : int; check_cost : int }

type fstate =
  | Not_started of (unit -> unit)
  | Paused of int * (unit -> Coro.status)  (* owed cycles, continuation *)
  | Finished

type fiber = { fname : string; mutable fstate : fstate }

type t = {
  mode : mode;
  obs : Iw_obs.Obs.t;
  switch_cycles : int;
  q : fiber Queue.t;
  mutable since_check : int;  (* work cycles since last timing call *)
  mutable last_switch : int;  (* virtual time of the last switch *)
  mutable overhead : int;
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
    overhead = 0;
  }

let spawn t ?(name = "fiber") body =
  let f = { fname = name; fstate = Not_started body } in
  Queue.push f t.q;
  f

let yield () = Coro.yield ()

let switch_cost t = t.switch_cycles
let count t id = Iw_obs.Counter.get t.obs.Iw_obs.Obs.counters id
let switches t = count t Iw_obs.Counter.Fiber_switches
let timing_checks t = count t Iw_obs.Counter.Timing_checks
let overhead_cycles t = t.overhead

let pay_switch t =
  t.overhead <- t.overhead + t.switch_cycles;
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
            t.overhead <- t.overhead + check_cost;
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
  let requeue f owed k =
    f.fstate <- Paused (owed, k);
    Queue.push f t.q
  in
  let rec loop () =
    match Queue.take_opt t.q with
    | None -> ()
    | Some f ->
        resume f;
        loop ()
  and resume f =
    match f.fstate with
    | Finished -> ()
    | Not_started body -> exec f (Coro.start body)
    | Paused (owed, k) -> grant f owed k
  and grant f owed k =
    match burn t owed with
    | None -> exec f (k ())
    | Some remaining ->
        pay_switch t;
        requeue f remaining k
  and exec f (status : Coro.status) =
    match status with
    | Coro.Done -> f.fstate <- Finished
    | Coro.Failed e -> raise e
    | Coro.Paused (Coro.Consumed (n, k)) -> grant f n k
    | Coro.Paused (Coro.Yielded k) ->
        if Queue.is_empty t.q then exec f (k ())
        else begin
          pay_switch t;
          requeue f 0 k
        end
    | Coro.Paused (Coro.Requested (r, k)) ->
        (* Pass kernel requests through the carrier thread. *)
        let v = Coro.request r in
        exec f (k v)
  in
  loop ()
