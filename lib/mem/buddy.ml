type t = {
  base : int;
  size : int;
  min_block : int;
  min_order : int;
  max_order : int;
  (* free.(o - min_order) holds base addresses of free blocks of 2^o. *)
  free : (int, unit) Hashtbl.t array;
  live : (int, int) Hashtbl.t;  (* base -> order *)
  mutable allocated : int;
}

let is_pow2 n = n > 0 && n land (n - 1) = 0

let log2 n =
  let rec go acc n = if n <= 1 then acc else go (acc + 1) (n lsr 1) in
  go 0 n

let create ~base ~size ~min_block =
  if not (is_pow2 size) then invalid_arg "Buddy.create: size not a power of two";
  if not (is_pow2 min_block) then
    invalid_arg "Buddy.create: min_block not a power of two";
  if min_block > size then invalid_arg "Buddy.create: min_block > size";
  if base land (size - 1) <> 0 then
    invalid_arg "Buddy.create: base not aligned to size";
  let min_order = log2 min_block and max_order = log2 size in
  let free = Array.init (max_order - min_order + 1) (fun _ -> Hashtbl.create 16) in
  Hashtbl.replace free.(max_order - min_order) base ();
  { base; size; min_block; min_order; max_order; free; live = Hashtbl.create 64; allocated = 0 }

let slot t order = t.free.(order - t.min_order)

let order_for t n =
  let rec go o = if 1 lsl o >= n then o else go (o + 1) in
  go t.min_order

let alloc t n =
  if n <= 0 then invalid_arg "Buddy.alloc: n <= 0";
  let want = order_for t n in
  if want > t.max_order then None
  else begin
    (* Lowest-address fit across all sufficient orders: keeps
       allocation deterministic and makes compaction converge. *)
    let find want =
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
          Some (addr, o)
    in
    match find want with
    | None -> None
    | Some (addr, o) ->
        (* Split down to the wanted order, freeing the upper halves. *)
        let rec split o =
          if o > want then begin
            let o' = o - 1 in
            let buddy = addr + (1 lsl o') in
            Hashtbl.replace (slot t o') buddy ();
            split o'
          end
        in
        split o;
        Hashtbl.replace t.live addr want;
        t.allocated <- t.allocated + (1 lsl want);
        Some addr
  end

let free t addr =
  match Hashtbl.find_opt t.live addr with
  | None -> invalid_arg (Printf.sprintf "Buddy.free: %#x is not live" addr)
  | Some order ->
      Hashtbl.remove t.live addr;
      t.allocated <- t.allocated - (1 lsl order);
      (* Coalesce with the buddy while possible. *)
      let rec coalesce addr order =
        if order >= t.max_order then Hashtbl.replace (slot t order) addr ()
        else begin
          let buddy = t.base + ((addr - t.base) lxor (1 lsl order)) in
          if Hashtbl.mem (slot t order) buddy then begin
            Hashtbl.remove (slot t order) buddy;
            coalesce (min addr buddy) (order + 1)
          end
          else Hashtbl.replace (slot t order) addr ()
        end
      in
      coalesce addr order

let block_size t addr =
  match Hashtbl.find_opt t.live addr with
  | None -> invalid_arg (Printf.sprintf "Buddy.block_size: %#x is not live" addr)
  | Some order -> 1 lsl order

let allocated_bytes t = t.allocated
let free_bytes t = t.size - t.allocated

let largest_free_block t =
  let rec go o =
    if o < t.min_order then 0
    else if Hashtbl.length (slot t o) > 0 then 1 lsl o
    else go (o - 1)
  in
  go t.max_order

let external_fragmentation t =
  let free = free_bytes t in
  if free = 0 then 0.0
  else 1.0 -. (float_of_int (largest_free_block t) /. float_of_int free)

let live_blocks t =
  Hashtbl.fold (fun base order acc -> (base, 1 lsl order) :: acc) t.live []
  |> List.sort compare
