(* Parallel experiment driver.

   Every experiment in the registry owns its own [Sim.t] and seeded
   [Rng.t]; the engine's shared values ([Sim.null_event] and its
   [nop]) are never mutated after initialization, so experiments are
   share-nothing and can run on separate OCaml 5 domains.
   [parallel_map] farms the list out to domains through a shared
   [Atomic.t] work index and writes results into a pre-allocated slot
   array, so the caller always sees results in input order — parallel
   output merges back byte-identical to the serial run. *)

let worker ~f ~items ~results ~next ~failure () =
  let n = Array.length items in
  let rec loop () =
    (* Stop picking up work once any domain has failed. *)
    if Atomic.get failure = None then begin
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        (match f items.(i) with
        | r -> results.(i) <- Some r
        | exception e ->
            ignore (Atomic.compare_and_set failure None (Some e)));
        loop ()
      end
    end
  in
  loop ()

let default_jobs () =
  match Sys.getenv_opt "INTERWEAVE_JOBS" with
  | Some s -> ( match int_of_string_opt s with Some j when j > 0 -> j | _ -> 1)
  | None -> Domain.recommended_domain_count ()

let parallel_map ?jobs f xs =
  let jobs = match jobs with Some j -> j | None -> default_jobs () in
  let items = Array.of_list xs in
  let n = Array.length items in
  let jobs = min jobs n in
  if jobs <= 1 then List.map f xs
  else begin
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let failure = Atomic.make None in
    let run = worker ~f ~items ~results ~next ~failure in
    let domains = Array.init (jobs - 1) (fun _ -> Domain.spawn run) in
    run ();
    Array.iter Domain.join domains;
    (match Atomic.get failure with Some e -> raise e | None -> ());
    Array.to_list
      (Array.map
         (function Some r -> r | None -> assert false (* all slots filled *))
         results)
  end
