(* The reference model for the store-buffer oracle: the list-based
   buffer that [Iw_coherence.Consistency]'s ring replaced, kept
   test-only.  Every store filters, measures, reverses and appends the
   whole buffer — slow, allocating, and easy to read, which is the
   point.  The property in test_coherence.ml runs it beside the ring on
   the same workload and demands the same result record. *)

open Iw_coherence

type model = Consistency.model = Tso | Selective

type params = Consistency.params = {
  store_drain_cycles : int;
  buffer_slots : int;
}

type result = Consistency.result = {
  model : model;
  iterations : int;
  total_cycles : int;
  fence_stalls : int;
  store_stalls : int;
}

(* The store buffer holds (drain_time, ordered?) entries. *)
type sb = { mutable entries : (int * bool) list (* oldest first *) }

let producer_consumer ~params ~iterations ~data_stores ~unrelated_stores model
    =
  let sb = { entries = [] } in
  let now = ref 0 in
  let fence_stalls = ref 0 and store_stalls = ref 0 in
  let drain_completed () =
    sb.entries <- List.filter (fun (t, _) -> t > !now) sb.entries
  in
  let issue_store ~ordered =
    drain_completed ();
    (* A full buffer stalls the core until the oldest entry drains. *)
    (if List.length sb.entries >= params.buffer_slots then
       match sb.entries with
       | (t, _) :: _ ->
           store_stalls := !store_stalls + (t - !now);
           now := t;
           drain_completed ()
       | [] -> ());
    (* The store itself issues in one cycle; it drains later.  Drain
       is FIFO: an entry completes store_drain after its predecessor. *)
    let tail_free =
      match List.rev sb.entries with (t, _) :: _ -> t | [] -> !now
    in
    let done_at = max !now tail_free + params.store_drain_cycles in
    sb.entries <- sb.entries @ [ (done_at, ordered) ];
    incr now
  in
  let fence () =
    drain_completed ();
    let must_wait =
      match model with
      | Tso -> List.fold_left (fun acc (t, _) -> max acc t) !now sb.entries
      | Selective ->
          List.fold_left
            (fun acc (t, ordered) -> if ordered then max acc t else acc)
            !now sb.entries
    in
    fence_stalls := !fence_stalls + (must_wait - !now);
    now := must_wait;
    drain_completed ()
  in
  for _ = 1 to iterations do
    for _ = 1 to data_stores do
      issue_store ~ordered:true;
      now := !now + 50
    done;
    now := !now + 400;
    for _ = 1 to unrelated_stores do
      issue_store ~ordered:false;
      now := !now + 2
    done;
    fence ();
    issue_store ~ordered:true;
    now := !now + 2_500
  done;
  {
    model;
    iterations;
    total_cycles = !now;
    fence_stalls = !fence_stalls;
    store_stalls = !store_stalls;
  }
