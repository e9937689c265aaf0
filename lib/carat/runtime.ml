open Iw_ir

module IntMap = Map.Make (Int)

type region = {
  logical : int;  (* allocation-time base; what the program holds *)
  size : int;  (* requested words *)
  mutable phys : int;  (* current physical base in the buddy heap *)
}

(* What a lookup returns when no region contains the address: it
   contains nothing itself. *)
let no_region = { logical = 0; size = 0; phys = 0 }

type t = {
  heap : Iw_mem.Buddy.t;
  obs : Iw_obs.Obs.t;
  mutable regions : region IntMap.t;  (* keyed by logical base *)
  mutable last : region;  (* the last region a lookup found, or [no_region] *)
  mutable next_logical : int;
  mutable ctx : Interp.ctx option;
  mutable n_moves : int;
  mutable n_moved_words : int;
  mutable vclock : int;  (* span clock; words moved stand in for cycles *)
}

let create ?(heap_size = 1 lsl 22) () =
  {
    (* Physical heap sits at [heap_size, 2*heap_size); logical bases
       start far above it and are never reused, so the two spaces
       cannot collide. *)
    heap = Iw_mem.Buddy.create ~base:heap_size ~size:heap_size ~min_block:16;
    obs = Iw_obs.Obs.inherit_trace ();
    regions = IntMap.empty;
    last = no_region;
    next_logical = 16 * heap_size;
    ctx = None;
    n_moves = 0;
    n_moved_words = 0;
    vclock = 0;
  }

(* The map is the only source of truth; [last] is the record of the
   region a lookup last found, which a hit reads without allocating.
   Freeing that region clears it.  A move rewrites [phys] in that same
   record, and logical bases are never reused, so nothing else can make
   it stale. *)
let region_containing t addr =
  let r = t.last in
  if r.logical <= addr && addr < r.logical + r.size then r
  else
    match IntMap.find_last_opt (fun b -> b <= addr) t.regions with
    | Some (_, r) when addr < r.logical + r.size ->
        t.last <- r;
        r
    | _ -> no_region

let regions t =
  IntMap.fold (fun _ r acc -> (r.logical, r.size) :: acc) t.regions []
  |> List.rev

let region_count t = IntMap.cardinal t.regions
let live_words t = IntMap.fold (fun _ r acc -> acc + r.size) t.regions 0
let count t id = Iw_obs.Counter.get t.obs.Iw_obs.Obs.counters id
let guard_checks t = count t Iw_obs.Counter.Guard_checks
let guard_faults t = count t Iw_obs.Counter.Guard_faults
let moves t = t.n_moves
let moved_words t = t.n_moved_words
let rollbacks t = count t Iw_obs.Counter.Move_rollback
let fragmentation t = Iw_mem.Buddy.external_fragmentation t.heap

let alloc t size =
  let size = max 1 size in
  match Iw_mem.Buddy.alloc t.heap size with
  | None -> raise (Interp.Fault "carat: out of physical memory")
  | Some phys ->
      let logical = t.next_logical in
      t.next_logical <- logical + size;
      t.regions <- IntMap.add logical { logical; size; phys } t.regions;
      logical

let free t logical =
  match IntMap.find_opt logical t.regions with
  | None -> raise (Interp.Fault "carat: free of untracked base")
  | Some r ->
      Iw_mem.Buddy.free t.heap r.phys;
      t.regions <- IntMap.remove logical t.regions;
      if t.last == r then t.last <- no_region

let translate t addr =
  let r = region_containing t addr in
  if r == no_region then addr else r.phys + (addr - r.logical)

let guard t ~base ~offset ~length =
  Iw_obs.Counter.incr t.obs.Iw_obs.Obs.counters Iw_obs.Counter.Guard_checks;
  let target = match length with None -> base + offset | Some _ -> base in
  if region_containing t target == no_region then begin
    Iw_obs.Counter.incr t.obs.Iw_obs.Obs.counters Iw_obs.Counter.Guard_faults;
    Iw_obs.Trace.instant t.obs.Iw_obs.Obs.trace ~name:"guard_fault"
      ~cat:"carat" ~cpu:(-1) ~ts:t.vclock ();
    raise
      (Interp.Fault (Printf.sprintf "carat: protection fault at %#x" target))
  end

let hooks t =
  {
    Interp.default_hooks with
    on_init = (fun ctx -> t.ctx <- Some ctx);
    on_guard = (fun ~base ~offset ~length -> guard t ~base ~offset ~length);
    on_track_alloc = (fun ~base:_ ~size:_ -> ());
    on_track_free = (fun ~base:_ -> ());
    translate = (fun addr -> translate t addr);
    extern =
      (fun name args ->
        match (name, args) with
        | "malloc", [ size ] -> Some (alloc t size)
        | "free", [ base ] ->
            free t base;
            Some 0
        | _ -> None);
  }

let move_region t ~base =
  match IntMap.find_opt base t.regions with
  | None -> None
  | Some r -> (
      match Iw_mem.Buddy.alloc t.heap r.size with
      | None -> None
      | Some new_phys
        when
          (let plan = Iw_faults.Plan.ambient () in
           Iw_faults.Plan.enabled plan
           && Iw_faults.Plan.fire plan t.obs
                ~kind:Iw_faults.Plan.Move_interrupt ~cpu:(-1) ~ts:t.vclock) ->
          (* The move was interrupted mid-copy (a guard violation hit
             the half-written destination).  Quarantine: release the
             partial destination and roll back.  The region still
             points at its intact source, so the address space never
             sees the tear — the move just didn't happen. *)
          Iw_mem.Buddy.free t.heap new_phys;
          Iw_obs.Counter.incr t.obs.Iw_obs.Obs.counters
            Iw_obs.Counter.Move_rollback;
          (let tr = t.obs.Iw_obs.Obs.trace in
           if tr.Iw_obs.Trace.enabled then
             Iw_obs.Trace.instant tr ~name:"carat_rollback" ~cat:"carat"
               ~cpu:(-1) ~ts:t.vclock ());
          None
      | Some new_phys ->
          (match t.ctx with
          | Some ctx ->
              for i = 0 to r.size - 1 do
                ctx.Interp.write (new_phys + i) (ctx.Interp.read (r.phys + i))
              done
          | None -> ());
          Iw_mem.Buddy.free t.heap r.phys;
          t.n_moves <- t.n_moves + 1;
          t.n_moved_words <- t.n_moved_words + r.size;
          (* One span per copy; the words moved stand in for cycles on
             the runtime's private span clock. *)
          (let tr = t.obs.Iw_obs.Obs.trace in
           if tr.Iw_obs.Trace.enabled then begin
             Iw_obs.Trace.span tr ~name:"carat_move" ~cat:"carat" ~cpu:(-1)
               ~ts:t.vclock ~dur:(max 1 r.size) ();
             t.vclock <- t.vclock + max 1 r.size
           end);
          r.phys <- new_phys;
          Some new_phys)

let defragment t =
  let tr = t.obs.Iw_obs.Obs.trace in
  let pass_start = t.vclock in
  (* Ascending physical order; the buddy hands out the lowest free
     block, so each move either compacts or is undone. *)
  let by_phys =
    IntMap.fold (fun _ r acc -> r :: acc) t.regions []
    |> List.sort (fun a b -> compare a.phys b.phys)
  in
  let moved = ref 0 in
  List.iter
    (fun r ->
      let old_phys = r.phys in
      match move_region t ~base:r.logical with
      | Some new_phys when new_phys < old_phys -> incr moved
      | Some _ ->
          (* Went up: undo by moving back is wasteful; accept only
             downward moves by moving again (the old block is free
             now, so this lands at or below). *)
          (match move_region t ~base:r.logical with
          | Some p when p < old_phys -> incr moved
          | _ -> ())
      | None -> ())
    by_phys;
  (* Parent span over the whole pass, emitted after its move spans
     (emit order at completion is what the profiler's tie-break
     expects). *)
  if tr.Iw_obs.Trace.enabled then begin
    Iw_obs.Trace.span tr ~name:"carat_defrag" ~cat:"carat" ~cpu:(-1)
      ~ts:pass_start
      ~dur:(max 1 (t.vclock - pass_start))
      ();
    t.vclock <- max t.vclock (pass_start + 1)
  end;
  !moved

(* Wrap a guarded program run in an enclosing span on the runtime's
   span clock: the span starts at the clock's position before the run
   (so any moves/faults the run triggers nest inside) and lasts at
   least the interpreter's reported cycles. *)
let traced_run t ~name f =
  let tr = t.obs.Iw_obs.Obs.trace in
  if not tr.Iw_obs.Trace.enabled then f ()
  else begin
    let start = t.vclock in
    let result : Interp.result = f () in
    let dur = max 1 (max result.Interp.cycles (t.vclock - start)) in
    Iw_obs.Trace.span tr ~name ~cat:"carat" ~cpu:(-1) ~ts:start ~dur ();
    t.vclock <- start + dur;
    result
  end
