(* Reference event engine for differential tests: the pending set is
   one list kept sorted by time, then by schedule order, and each
   operation walks it.  It is slow but simple enough to trust;
   `Iw_engine.Sim` is checked against it.  A timer is a small int, and
   it is armed while an entry with its number is pending. *)

type entry = {
  time : int;
  seq : int;
  timer : int; (* -1 for a one-shot event *)
  action : unit -> unit;
}

type t = {
  mutable now : int;
  mutable next_seq : int;
  mutable pending : entry list;
}

let create () = { now = 0; next_seq = 0; pending = [] }

let now t = t.now

let pending t = List.length t.pending

let insert t ~caller ~timer at action =
  if at < t.now then invalid_arg (caller ^ ": in the past");
  let e = { time = at; seq = t.next_seq; timer; action } in
  t.next_seq <- t.next_seq + 1;
  (* Every pending entry was scheduled earlier, so it goes before [e]
     whenever its time is not later. *)
  let rec ins = function
    | x :: rest when x.time <= at -> x :: ins rest
    | l -> e :: l
  in
  t.pending <- ins t.pending

let schedule t ~at action = insert t ~caller:"schedule" ~timer:(-1) at action

let armed t i = List.exists (fun e -> e.timer = i) t.pending

let arm t i ~at action =
  if armed t i then invalid_arg "arm: already armed";
  insert t ~caller:"arm" ~timer:i at action

let disarm t i = t.pending <- List.filter (fun e -> e.timer <> i) t.pending

let fire_one t ~horizon =
  match t.pending with
  | e :: rest when e.time <= horizon ->
      t.pending <- rest;
      t.now <- e.time;
      e.action ();
      true
  | _ -> false

let run_until t horizon = while fire_one t ~horizon do () done

let run ~max_events t =
  let fired = ref 0 in
  while !fired < max_events && fire_one t ~horizon:max_int do
    incr fired
  done
