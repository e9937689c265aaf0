open Iw_ir

type region = {
  logical : int;  (* allocation-time base; what the program holds *)
  size : int;  (* requested words *)
  mutable phys : int;  (* current physical base in the buddy heap *)
}

(* What a lookup returns when no region contains the address: it
   contains nothing itself.  It also fills the table's unused cells. *)
let no_region = { logical = 0; size = 0; phys = 0 }

type t = {
  heap : Iw_mem.Buddy.t;
  obs : Iw_obs.Obs.t;
  (* The region table: the live regions in [table.(0 .. count-1)],
     sorted by logical base.  Bases only grow, so an allocation
     appends. *)
  mutable table : region array;
  mutable count : int;
  mutable last : region;  (* the last region a lookup found, or [no_region] *)
  mutable next_logical : int;
  mutable ctx : Interp.ctx option;
  mutable n_moves : int;
  mutable n_moved_words : int;
  mutable vclock : int;  (* span clock; words moved stand in for cycles *)
}

(* The buddy heap's smallest block, in words. *)
let min_block = 16

let create ?(heap_size = 1 lsl 22) () =
  if heap_size < min_block || heap_size land (heap_size - 1) <> 0 then
    invalid_arg
      (Printf.sprintf
         "Runtime.create: heap_size must be a power of two >= %d, got %d"
         min_block heap_size);
  {
    (* Physical heap sits at [heap_size, 2*heap_size); logical bases
       start far above it and are never reused, so the two spaces
       cannot collide. *)
    heap = Iw_mem.Buddy.create ~base:heap_size ~size:heap_size ~min_block;
    obs = Iw_obs.Obs.inherit_trace ();
    table = Array.make 16 no_region;
    count = 0;
    last = no_region;
    next_logical = 16 * heap_size;
    ctx = None;
    n_moves = 0;
    n_moved_words = 0;
    vclock = 0;
  }

(* The index of the last region in [lo, hi) whose base is at most
   [addr], or [lo - 1]; every region below [lo] starts at or below
   [addr]. *)
let rec floor_index table addr lo hi =
  if lo >= hi then lo - 1
  else
    let mid = (lo + hi) lsr 1 in
    if (Array.unsafe_get table mid).logical <= addr then
      floor_index table addr (mid + 1) hi
    else floor_index table addr lo mid

(* The index of the region whose base is [base], or -1. *)
let index_of t base =
  let i = floor_index t.table base 0 t.count in
  if i >= 0 && t.table.(i).logical = base then i else -1

(* The table is the only source of truth; [last] is the record of the
   region a lookup last found, which a hit reads without searching.
   Freeing that region clears it.  A move rewrites [phys] in that same
   record, and logical bases are never reused, so nothing else can make
   it stale. *)
let region_containing t addr =
  let r = t.last in
  if r.logical <= addr && addr < r.logical + r.size then r
  else
    let i = floor_index t.table addr 0 t.count in
    if i < 0 then no_region
    else
      let r = t.table.(i) in
      if addr < r.logical + r.size then begin
        t.last <- r;
        r
      end
      else no_region

let regions t =
  List.init t.count (fun i ->
      let r = t.table.(i) in
      (r.logical, r.size))

let region_count t = t.count

let live_words t =
  let sum = ref 0 in
  for i = 0 to t.count - 1 do
    sum := !sum + t.table.(i).size
  done;
  !sum

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
      if t.count = Array.length t.table then begin
        let bigger = Array.make (2 * t.count) no_region in
        Array.blit t.table 0 bigger 0 t.count;
        t.table <- bigger
      end;
      t.table.(t.count) <- { logical; size; phys };
      t.count <- t.count + 1;
      logical

let free t logical =
  let i = index_of t logical in
  if i < 0 then raise (Interp.Fault "carat: free of untracked base");
  let r = t.table.(i) in
  Iw_mem.Buddy.free t.heap r.phys;
  Array.blit t.table (i + 1) t.table i (t.count - i - 1);
  t.count <- t.count - 1;
  t.table.(t.count) <- no_region;
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

(* Migrate region [r], which is in the table. *)
let move t r =
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
      Some new_phys

let move_region t ~base =
  let i = index_of t base in
  if i < 0 then None else move t t.table.(i)

let defragment t =
  let tr = t.obs.Iw_obs.Obs.trace in
  let pass_start = t.vclock in
  (* Ascending physical order; the buddy hands out the lowest free
     block, so each move either compacts or is undone. *)
  let by_phys = Array.sub t.table 0 t.count in
  Array.sort (fun a b -> Int.compare a.phys b.phys) by_phys;
  let moved = ref 0 in
  Array.iter
    (fun r ->
      let old_phys = r.phys in
      match move t r with
      | Some new_phys when new_phys < old_phys -> incr moved
      | Some _ ->
          (* Went up: undo by moving back is wasteful; accept only
             downward moves by moving again (the old block is free
             now, so this lands at or below). *)
          (match move t r with
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
