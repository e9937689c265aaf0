(* Deterministic discrete-event core — fast path.

   Every pending occurrence, one-shot event and armed timer alike,
   sits in one indexed 4-ary min-heap keyed by (time, schedule
   counter).  The keys live in two parallel int arrays beside the
   record array, so a sift compares plain ints and touches no record;
   the counter grows in schedule order, which makes same-time
   occurrences fire in the order they were scheduled.  Each record
   keeps its heap index, so [disarm] removes a timer in O(log n), and
   no handle to a one-shot event escapes, so its record is recycled
   through a free list once it fires and steady-state firing allocates
   nothing. *)

type event = {
  mutable action : unit -> unit;
  mutable pos : int; (* heap index; -1 when not pending *)
  mutable fnext : event; (* free-list link *)
  oneshot : bool; (* recycled after it fires; a timer's record is not *)
}

let nop () = ()

(* Shared inert record: free-list nil and vacated heap slots.  Fleet
   machines run their simulators on parallel domains, so nothing ever
   writes it. *)
let rec null_event = { action = nop; pos = -1; fnext = null_event; oneshot = true }

type t = {
  mutable now : int;
  mutable times : int array; (* heap keys, first component *)
  mutable seqs : int array; (* heap keys, second component *)
  mutable evs : event array;
  mutable size : int;
  mutable next_seq : int;
  mutable free : event;
  root_rng : Rng.t;
  mutable heap_pushes : int;
  mutable heap_pops : int;
  mutable timer_arms : int;
  mutable timer_fires : int;
}

type timer = event

type stats = {
  heap_pushes : int;
  heap_pops : int;
  timer_arms : int;
  timer_fires : int;
}

let capacity = 256

let create ?(seed = 42) () =
  {
    now = 0;
    times = Array.make capacity 0;
    seqs = Array.make capacity 0;
    evs = Array.make capacity null_event;
    size = 0;
    next_seq = 0;
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
  }

let pending t = t.size

let exhausted t = t.size = 0

(* The heap.  Children of slot [i] are [4i+1 .. 4i+4].  Sift loops are
   top-level tail recursions: a [ref]-based while loop would
   heap-allocate the ref cells on every push/pop (no flambda). *)

let[@inline] before t i time seq =
  let ti = Array.unsafe_get t.times i in
  ti < time || (ti = time && Array.unsafe_get t.seqs i < seq)

let[@inline] place t i time seq ev =
  Array.unsafe_set t.times i time;
  Array.unsafe_set t.seqs i seq;
  Array.unsafe_set t.evs i ev;
  ev.pos <- i

let[@inline] move t ~src ~dst =
  Array.unsafe_set t.times dst (Array.unsafe_get t.times src);
  Array.unsafe_set t.seqs dst (Array.unsafe_get t.seqs src);
  let ev = Array.unsafe_get t.evs src in
  Array.unsafe_set t.evs dst ev;
  ev.pos <- dst

let rec sift_up t i time seq ev =
  if i = 0 then place t 0 time seq ev
  else begin
    let p = (i - 1) lsr 2 in
    if before t p time seq then place t i time seq ev
    else begin
      move t ~src:p ~dst:i;
      sift_up t p time seq ev
    end
  end

(* The least of slot [best] and the slots [c .. last]. *)
let rec least_child t c last best =
  if c > last then best
  else
    least_child t (c + 1) last
      (if
         before t c
           (Array.unsafe_get t.times best)
           (Array.unsafe_get t.seqs best)
       then c
       else best)

let rec sift_down t i time seq ev =
  let c = (4 * i) + 1 in
  if c >= t.size then place t i time seq ev
  else begin
    let last = if c + 3 < t.size then c + 3 else t.size - 1 in
    let m = least_child t (c + 1) last c in
    if before t m time seq then begin
      move t ~src:m ~dst:i;
      sift_down t m time seq ev
    end
    else place t i time seq ev
  end

let grow t =
  let cap = 2 * Array.length t.times in
  let times = Array.make cap 0
  and seqs = Array.make cap 0
  and evs = Array.make cap null_event in
  Array.blit t.times 0 times 0 t.size;
  Array.blit t.seqs 0 seqs 0 t.size;
  Array.blit t.evs 0 evs 0 t.size;
  t.times <- times;
  t.seqs <- seqs;
  t.evs <- evs

let push t ~caller at ev =
  if at < t.now then
    invalid_arg
      (Printf.sprintf "%s: time %d is in the past (now=%d)" caller at t.now);
  if t.size = Array.length t.times then grow t;
  let i = t.size in
  t.size <- i + 1;
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  sift_up t i at seq ev

(* Take the record at slot [i] off the heap: the last entry fills the
   hole and moves up or down from there. *)
let remove t i =
  let ev = t.evs.(i) in
  ev.pos <- -1;
  let last = t.size - 1 in
  t.size <- last;
  let time = t.times.(last) and seq = t.seqs.(last) and lev = t.evs.(last) in
  t.evs.(last) <- null_event;
  if i < last then begin
    if i > 0 && not (before t ((i - 1) lsr 2) time seq) then
      sift_up t i time seq lev
    else sift_down t i time seq lev
  end

(* One-shot events. *)

let schedule_unit t ~at action =
  let ev =
    if t.free != null_event then begin
      let ev = t.free in
      t.free <- ev.fnext;
      ev.fnext <- null_event;
      ev.action <- action;
      ev
    end
    else { action; pos = -1; fnext = null_event; oneshot = true }
  in
  push t ~caller:"Sim.schedule_unit" at ev;
  t.heap_pushes <- t.heap_pushes + 1

let schedule_after_unit t dt action =
  if dt < 0 then invalid_arg "Sim.schedule_after_unit: negative delay";
  schedule_unit t ~at:(t.now + dt) action

(* Timers. *)

let timer _t = { action = nop; pos = -1; fnext = null_event; oneshot = false }

let arm t tm ~at cb =
  if tm.pos >= 0 then invalid_arg "Sim.arm: timer already armed";
  tm.action <- cb;
  push t ~caller:"Sim.arm" at tm;
  t.timer_arms <- t.timer_arms + 1

let arm_after t tm dt cb =
  if dt < 0 then invalid_arg "Sim.arm_after: negative delay";
  arm t tm ~at:(t.now + dt) cb

let disarm t tm = if tm.pos >= 0 then remove t tm.pos

(* Firing. *)

(* Fire the next occurrence if it is due at or before [horizon]. *)
let fire_one t ~horizon =
  t.size > 0
  && t.times.(0) <= horizon
  && begin
       let ev = t.evs.(0) in
       t.now <- t.times.(0);
       remove t 0;
       let action = ev.action in
       if ev.oneshot then begin
         t.heap_pops <- t.heap_pops + 1;
         ev.action <- nop;
         ev.fnext <- t.free;
         t.free <- ev
       end
       else t.timer_fires <- t.timer_fires + 1;
       action ();
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
