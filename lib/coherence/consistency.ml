type model = Tso | Selective

type params = { store_drain_cycles : int; buffer_slots : int }

let default_params = { store_drain_cycles = 40; buffer_slots = 56 }

type result = {
  model : model;
  iterations : int;
  total_cycles : int;
  fence_stalls : int;
  store_stalls : int;
}

(* The store buffer is a FIFO that drains in order: each entry
   completes [store_drain_cycles] after its predecessor, so drain times
   never decrease and the oldest entry always drains first.  A ring of
   drain times is therefore enough, plus the two times a fence may wait
   for: the newest entry's ([Tso]) and the newest ordered entry's
   ([Selective]).  Either may already have drained; a fence then waits
   for nothing. *)
type sb = {
  drains : int array;  (* ring of pending drain times, oldest at [head] *)
  mutable head : int;
  mutable count : int;
  mutable newest : int;  (* drain time of the newest store *)
  mutable newest_ordered : int;  (* ... of the newest ordered store *)
  mutable now : int;
  mutable fence_stalls : int;
  mutable store_stalls : int;
}

let drain_completed sb =
  while sb.count > 0 && sb.drains.(sb.head) <= sb.now do
    sb.head <- (if sb.head + 1 = Array.length sb.drains then 0 else sb.head + 1);
    sb.count <- sb.count - 1
  done

let issue_store sb params ~ordered =
  drain_completed sb;
  (* A full buffer stalls the core until the oldest entry drains. *)
  if sb.count >= params.buffer_slots then begin
    let t = sb.drains.(sb.head) in
    sb.store_stalls <- sb.store_stalls + (t - sb.now);
    sb.now <- t;
    drain_completed sb
  end;
  (* The store itself issues in one cycle; it drains later. *)
  let done_at = max sb.now sb.newest + params.store_drain_cycles in
  let slots = Array.length sb.drains in
  let tail = sb.head + sb.count in
  sb.drains.(if tail >= slots then tail - slots else tail) <- done_at;
  sb.count <- sb.count + 1;
  sb.newest <- done_at;
  if ordered then sb.newest_ordered <- done_at;
  sb.now <- sb.now + 1

let fence sb model =
  drain_completed sb;
  let must_wait =
    match model with
    | Tso -> (* Order everything: wait for the whole buffer. *) sb.newest
    | Selective -> (* Order only the flagged data's stores. *) sb.newest_ordered
  in
  if must_wait > sb.now then begin
    sb.fence_stalls <- sb.fence_stalls + (must_wait - sb.now);
    sb.now <- must_wait;
    drain_completed sb
  end

let producer_consumer ?(params = default_params) ~iterations ~data_stores
    ~unrelated_stores model =
  let at_least lo name v =
    if v < lo then
      invalid_arg
        (Printf.sprintf "Consistency.producer_consumer: %s must be >= %d" name
           lo)
  in
  at_least 1 "iterations" iterations;
  at_least 1 "buffer_slots" params.buffer_slots;
  at_least 0 "store_drain_cycles" params.store_drain_cycles;
  at_least 0 "data_stores" data_stores;
  at_least 0 "unrelated_stores" unrelated_stores;
  let sb =
    {
      drains = Array.make params.buffer_slots 0;
      head = 0;
      count = 0;
      newest = 0;
      newest_ordered = 0;
      now = 0;
      fence_stalls = 0;
      store_stalls = 0;
    }
  in
  for _ = 1 to iterations do
    (* The paper's scenario: the producer writes its data with room to
       drain, then does a burst of unrelated work that also stores,
       then publishes.  The fence before the flag only *needs* to
       order the data stores, which have long drained - but TSO waits
       for the whole unrelated burst too. *)
    for _ = 1 to data_stores do
      issue_store sb params ~ordered:true;
      sb.now <- sb.now + 50
    done;
    sb.now <- sb.now + 400;
    (* a tight unrelated burst right before publication *)
    for _ = 1 to unrelated_stores do
      issue_store sb params ~ordered:false;
      sb.now <- sb.now + 2
    done;
    fence sb model;
    issue_store sb params ~ordered:true (* the flag itself *);
    (* consumer-side / next-item compute lets the buffer drain *)
    sb.now <- sb.now + 2_500
  done;
  {
    model;
    iterations;
    total_cycles = sb.now;
    fence_stalls = sb.fence_stalls;
    store_stalls = sb.store_stalls;
  }
