(* Deterministic discrete-event core — fast path.

   Events are ordered by a packed {!Ekey} int key: time in the high
   bits, a per-time sequence number in the low bits, allocated from a
   shared counter table so heap events and wheel timers interleave in
   exact schedule order.  The queue is a monomorphic {!Int_heap}
   (plain [<] on keys, no tuples, no polymorphic compare); periodic
   and cancellable timers live in a {!Timer_wheel} so per-tick cost is
   O(1) instead of O(log n); no handle to a heap event escapes, so
   every event record is recycled through a free list and steady-state
   firing allocates nothing. *)

type event = {
  mutable cancelled : bool;
  mutable action : unit -> unit;
  mutable fnext : event; (* free-list link *)
}

let nop () = ()

(* Shared inert record: free-list nil and Int_heap dummy. *)
let rec null_event = { cancelled = false; action = nop; fnext = null_event }

type t = {
  mutable now : int;
  queue : event Int_heap.t;
  seqs : int Itbl.t; (* time -> next sequence number at that time *)
  mutable live : int; (* pending (uncancelled) heap events *)
  wheel : Timer_wheel.t;
  mutable free : event;
  root_rng : Rng.t;
  mutable heap_pushes : int;
  mutable heap_pops : int;
  mutable timer_arms : int;
  mutable timer_fires : int;
}

type timer = {
  wtm : Timer_wheel.timer;
  mutable fallback : event option;
      (* set when the deadline predates the wheel clock and the timer
         had to ride the heap instead *)
}

type stats = {
  heap_pushes : int;
  heap_pops : int;
  timer_arms : int;
  timer_fires : int;
  timer_cascades : int;
}

let create ?(seed = 42) () =
  {
    now = 0;
    queue = Int_heap.create ~capacity:256 ~dummy:null_event ();
    seqs = Itbl.create ~capacity:64 ~dummy:0 ();
    live = 0;
    wheel = Timer_wheel.create ();
    free = null_event;
    root_rng = Rng.create ~seed;
    heap_pushes = 0;
    heap_pops = 0;
    timer_arms = 0;
    timer_fires = 0;
  }

let now t = t.now

let rng t = t.root_rng

let stats (t : t) =
  {
    heap_pushes = t.heap_pushes;
    heap_pops = t.heap_pops;
    timer_arms = t.timer_arms;
    timer_fires = t.timer_fires;
    timer_cascades = Timer_wheel.cascades t.wheel;
  }

(* One packed key per scheduled occurrence, heap and wheel alike; the
   shared per-time counters are what make their merge a plain int
   comparison that reproduces global schedule order. *)
(* Top-level so the call passes a static closure (no flambda: a
   literal [fun] argument would allocate on every scheduled event). *)
let succ1 s = s + 1

let alloc_key t ~caller at =
  if at < t.now then
    invalid_arg
      (Printf.sprintf "%s: time %d is in the past (now=%d)" caller at t.now);
  let seq = Itbl.mutate t.seqs at succ1 in
  Ekey.pack ~time:at ~seq

let push t key action =
  let ev =
    if t.free != null_event then begin
      let ev = t.free in
      t.free <- ev.fnext;
      ev.fnext <- null_event;
      ev.cancelled <- false;
      ev.action <- action;
      ev
    end
    else { cancelled = false; action; fnext = null_event }
  in
  t.live <- t.live + 1;
  t.heap_pushes <- t.heap_pushes + 1;
  Int_heap.push t.queue key ev;
  ev

let schedule_unit t ~at action =
  ignore (push t (alloc_key t ~caller:"Sim.schedule_unit" at) action)

let schedule_after_unit t dt action =
  if dt < 0 then invalid_arg "Sim.schedule_after_unit: negative delay";
  schedule_unit t ~at:(t.now + dt) action

(* Only [disarm] cancels, and only the still-pending heap event of a
   timer that had to ride the heap: the entry stays there, skipped,
   until [purge] pops it. *)
let cancel t ev =
  ev.cancelled <- true;
  t.live <- t.live - 1

let pending t = t.live + Timer_wheel.live t.wheel

let exhausted t = t.live = 0 && Timer_wheel.live t.wheel = 0

(* Timers. *)

let timer _t = { wtm = Timer_wheel.make_timer (); fallback = None }

let timer_armed tt = Timer_wheel.armed tt.wtm || tt.fallback <> None

let arm t tt ~at cb =
  if timer_armed tt then invalid_arg "Sim.arm: timer already armed";
  let key = alloc_key t ~caller:"Sim.arm" at in
  t.timer_arms <- t.timer_arms + 1;
  if at < Timer_wheel.clock t.wheel then begin
    (* The wheel clock may sit ahead of [now] when a bounded [run]
       stopped just after cascading toward a then-due timer.  Ride the
       heap for this (rare) arm; the wheel never runs backwards. *)
    let ev =
      push t key (fun () ->
          tt.fallback <- None;
          t.timer_fires <- t.timer_fires + 1;
          cb ())
    in
    tt.fallback <- Some ev
  end
  else Timer_wheel.arm t.wheel tt.wtm ~key cb

let arm_after t tt dt cb =
  if dt < 0 then invalid_arg "Sim.arm_after: negative delay";
  arm t tt ~at:(t.now + dt) cb

let disarm t tt =
  if Timer_wheel.armed tt.wtm then Timer_wheel.cancel t.wheel tt.wtm
  else
    match tt.fallback with
    | Some ev ->
        cancel t ev;
        tt.fallback <- None
    | None -> ()

(* Firing. *)

let release t ev =
  ev.action <- nop;
  ev.fnext <- t.free;
  t.free <- ev

(* Drop cancelled events off the heap top so horizon checks see the
   next event that will actually fire. *)
let rec purge t =
  if not (Int_heap.is_empty t.queue) then begin
    let ev = Int_heap.top t.queue in
    if ev.cancelled then begin
      ignore (Int_heap.pop t.queue);
      t.heap_pops <- t.heap_pops + 1;
      release t ev;
      purge t
    end
  end

let advance_now t time =
  if time > t.now then begin
    (* The counter entry for the departed time can never be consulted
       again (scheduling in the past is rejected). *)
    Itbl.remove t.seqs t.now;
    t.now <- time
  end

(* Fire the single next due thing — heap event or wheel timer — at or
   before [horizon], advancing the wheel clock through cascade
   boundaries on the way.  Returns [false], leaving pending state
   untouched, when nothing is due within the horizon. *)
let rec fire_one t ~horizon =
  purge t;
  let hkey =
    if Int_heap.is_empty t.queue then max_int else Int_heap.min_key t.queue
  in
  let code = Timer_wheel.peek t.wheel in
  if code = Timer_wheel.nothing then hkey <> max_int && fire_heap t ~horizon
  else if code = Timer_wheel.fire then begin
    let wtm = Timer_wheel.due t.wheel in
    if Timer_wheel.key wtm < hkey then fire_wheel t wtm ~horizon
    else fire_heap t ~horizon
  end
  else begin
    let b = Timer_wheel.boundary t.wheel in
    let htime = if hkey = max_int then max_int else Ekey.time hkey in
    if b <= htime && b <= horizon then begin
      Timer_wheel.advance t.wheel b;
      fire_one t ~horizon
    end
    else hkey <> max_int && fire_heap t ~horizon
  end

and fire_heap t ~horizon =
  let time = Ekey.time (Int_heap.min_key t.queue) in
  time <= horizon
  && begin
       let ev = Int_heap.pop t.queue in
       t.heap_pops <- t.heap_pops + 1;
       t.live <- t.live - 1;
       advance_now t time;
       let action = ev.action in
       release t ev;
       action ();
       true
     end

and fire_wheel t wtm ~horizon =
  let time = Ekey.time (Timer_wheel.key wtm) in
  time <= horizon
  && begin
       let cb = Timer_wheel.callback wtm in
       Timer_wheel.take t.wheel wtm;
       t.timer_fires <- t.timer_fires + 1;
       advance_now t time;
       cb ();
       true
     end

let run_until t horizon = while fire_one t ~horizon do () done

let run ?max_events t =
  match max_events with
  | None -> run_until t max_int
  | Some m ->
      let fired = ref 0 in
      while !fired < m && fire_one t ~horizon:max_int do
        incr fired
      done
