(* Reference buddy allocator for differential tests: the free lists
   are hash sets, and an allocation scans every free block of every
   sufficient order for the lowest address.  It is slow and allocates
   per candidate, but simple enough to trust; `Iw_mem.Buddy` and the
   CARAT region table are checked against it. *)

type t = {
  base : int;
  size : int;
  min_order : int;
  max_order : int;
  free : (int, unit) Hashtbl.t array;  (* free.(o - min_order): bases of 2^o *)
  live : (int, int) Hashtbl.t;  (* base -> order *)
  mutable allocated : int;
}

let log2 n =
  let rec go acc n = if n <= 1 then acc else go (acc + 1) (n lsr 1) in
  go 0 n

let create ~base ~size ~min_block =
  let min_order = log2 min_block and max_order = log2 size in
  let free =
    Array.init (max_order - min_order + 1) (fun _ -> Hashtbl.create 16)
  in
  Hashtbl.replace free.(max_order - min_order) base ();
  let live = Hashtbl.create 64 in
  { base; size; min_order; max_order; free; live; allocated = 0 }

let slot t order = t.free.(order - t.min_order)

let alloc t n =
  let rec order_for o = if 1 lsl o >= n then o else order_for (o + 1) in
  let want = order_for t.min_order in
  if want > t.max_order then None
  else begin
    let best = ref None in
    for o = want to t.max_order do
      Hashtbl.iter
        (fun addr () ->
          match !best with
          | Some (a, _) when a <= addr -> ()
          | _ -> best := Some (addr, o))
        (slot t o)
    done;
    match !best with
    | None -> None
    | Some (addr, o) ->
        Hashtbl.remove (slot t o) addr;
        for o' = o - 1 downto want do
          Hashtbl.replace (slot t o') (addr + (1 lsl o')) ()
        done;
        Hashtbl.replace t.live addr want;
        t.allocated <- t.allocated + (1 lsl want);
        Some addr
  end

let free t addr =
  let order = Hashtbl.find t.live addr in
  Hashtbl.remove t.live addr;
  t.allocated <- t.allocated - (1 lsl order);
  let rec coalesce addr order =
    let buddy = t.base + ((addr - t.base) lxor (1 lsl order)) in
    if order < t.max_order && Hashtbl.mem (slot t order) buddy then begin
      Hashtbl.remove (slot t order) buddy;
      coalesce (min addr buddy) (order + 1)
    end
    else Hashtbl.replace (slot t order) addr ()
  in
  coalesce addr order

let allocated t = t.allocated

let largest_free_block t =
  let rec go o =
    if o < t.min_order then 0
    else if Hashtbl.length (slot t o) > 0 then 1 lsl o
    else go (o - 1)
  in
  go t.max_order

let live_blocks t =
  Hashtbl.fold (fun base order acc -> (base, 1 lsl order) :: acc) t.live []
  |> List.sort compare
