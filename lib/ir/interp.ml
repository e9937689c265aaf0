open Iw_engine

exception Fault of string
exception Out_of_fuel

type ctx = { read : int -> int; write : int -> int -> unit }

type hooks = {
  on_init : ctx -> unit;
  on_guard : base:int -> offset:int -> length:int option -> unit;
  on_track_alloc : base:int -> size:int -> unit;
  on_track_free : base:int -> unit;
  on_callback : string -> cycles:int -> unit;
  on_poll : device:int -> cycles:int -> unit;
  translate : int -> int;
  extern : string -> int list -> int option;
}

let default_hooks =
  {
    on_init = (fun _ -> ());
    on_guard = (fun ~base:_ ~offset:_ ~length:_ -> ());
    on_track_alloc = (fun ~base:_ ~size:_ -> ());
    on_track_free = (fun ~base:_ -> ());
    on_callback = (fun _ ~cycles:_ -> ());
    on_poll = (fun ~device:_ ~cycles:_ -> ());
    translate = Fun.id;
    extern = (fun _ _ -> None);
  }

type result = {
  ret : int option;
  cycles : int;
  dyn_insts : int;
  loads : int;
  stores : int;
  allocs : int;
  guards : int;
  tracks : int;
  callbacks : int;
  polls : int;
  max_callback_gap : int;
}

type state = {
  hooks : hooks;
  modul : Ir.modul;
  mem : int Itbl.t;  (* address -> word; absent words read 0 *)
  mutable depth : int;  (* call depth, guarded *)
  mutable brk : int;  (* bump allocator cursor *)
  mutable fuel : int;
  mutable cycles : int;
  mutable dyn_insts : int;
  mutable loads : int;
  mutable stores : int;
  mutable allocs : int;
  mutable guards : int;
  mutable tracks : int;
  mutable callbacks : int;
  mutable polls : int;
  mutable last_callback : int;
  mutable max_gap : int;
}

let eval_binop op a b =
  match op with
  | Ir.Add -> a + b
  | Ir.Sub -> a - b
  | Ir.Mul -> a * b
  | Ir.Div -> if b = 0 then raise (Fault "division by zero") else a / b
  | Ir.Rem -> if b = 0 then raise (Fault "remainder by zero") else a mod b
  | Ir.And -> a land b
  | Ir.Lt -> if a < b then 1 else 0
  | Ir.Eq -> if a = b then 1 else 0
  | Ir.Ne -> if a <> b then 1 else 0

(* The memory table reserves its two lowest keys, so no run can hold a
   word there: an access to either is a wild access. *)
let check_addr addr =
  if addr <= min_int + 1 then
    raise (Fault (Printf.sprintf "wild access at address %d" addr))

let read mem addr =
  check_addr addr;
  Itbl.find mem addr

let write mem addr v =
  check_addr addr;
  Itbl.set mem addr v

let charge st n =
  st.cycles <- st.cycles + n;
  st.dyn_insts <- st.dyn_insts + 1;
  st.fuel <- st.fuel - 1;
  if st.fuel <= 0 then raise Out_of_fuel

let max_call_depth = 10_000

let rec call st fname args =
  match Ir.find_func st.modul fname with
  | f ->
      st.depth <- st.depth + 1;
      if st.depth > max_call_depth then raise (Fault "call depth exceeded");
      let r = exec_func st f args in
      st.depth <- st.depth - 1;
      r
  | exception Not_found -> (
      (* Hooks may override even the built-in allocator (CARAT does). *)
      match st.hooks.extern fname args with
      | Some v -> Some v
      | None -> (
          match fname with
          | "malloc" -> (
              match args with
              | [ size ] ->
                  let base = st.brk in
                  st.brk <- st.brk + max 1 size;
                  Some base
              | _ -> raise (Fault "malloc arity"))
          | "free" -> Some 0
          | _ -> raise (Fault (Printf.sprintf "unknown callee %s" fname))))

and exec_func st f args =
  let regs = Array.make (max f.Ir.next_reg 1) 0 in
  List.iteri
    (fun i p -> if i < List.length args then regs.(p) <- List.nth args i)
    f.Ir.params;
  let value = function Ir.Reg r -> regs.(r) | Ir.Imm i -> i in
  (* One instruction loop and one block loop per call, so executing a
     block builds no closure. *)
  let rec run_insts = function
    | [] -> ()
    | inst :: rest ->
        charge st (Cost.inst inst);
        (match inst with
        | Ir.Bin { dst; op; a; b } ->
            regs.(dst) <- eval_binop op (value a) (value b)
        | Ir.Fbin { dst; op; a; b } ->
            regs.(dst) <- eval_binop op (value a) (value b)
        | Ir.Mov { dst; src } -> regs.(dst) <- value src
        | Ir.Load { dst; base; offset } ->
            st.loads <- st.loads + 1;
            let addr = st.hooks.translate (value base + value offset) in
            regs.(dst) <- read st.mem addr
        | Ir.Store { base; offset; value = v } ->
            st.stores <- st.stores + 1;
            let addr = st.hooks.translate (value base + value offset) in
            write st.mem addr (value v)
        | Ir.Alloc { dst; size } -> (
            st.allocs <- st.allocs + 1;
            match call st "malloc" [ value size ] with
            | Some base -> regs.(dst) <- base
            | None -> raise (Fault "malloc returned nothing"))
        | Ir.Free { base } -> ignore (call st "free" [ value base ])
        | Ir.Call { dst; callee; args } -> (
            let vs = List.map value args in
            match (call st callee vs, dst) with
            | Some v, Some d -> regs.(d) <- v
            | _, None -> ()
            | None, Some d -> regs.(d) <- 0)
        | Ir.Guard { base; offset; kind } ->
            st.guards <- st.guards + 1;
            let length =
              match kind with
              | Ir.Guard_addr -> None
              | Ir.Guard_region { length } -> Some (value length)
            in
            st.hooks.on_guard ~base:(value base) ~offset:(value offset) ~length
        | Ir.Track { base; tkind } -> (
            st.tracks <- st.tracks + 1;
            match tkind with
            | `Alloc size ->
                st.hooks.on_track_alloc ~base:(value base) ~size:(value size)
            | `Free -> st.hooks.on_track_free ~base:(value base))
        | Ir.Callback { cb } ->
            st.callbacks <- st.callbacks + 1;
            let gap = st.cycles - st.last_callback in
            if gap > st.max_gap then st.max_gap <- gap;
            st.last_callback <- st.cycles;
            st.hooks.on_callback cb ~cycles:st.cycles
        | Ir.Poll { device } ->
            st.polls <- st.polls + 1;
            st.hooks.on_poll ~device ~cycles:st.cycles);
        run_insts rest
  in
  let rec run_block bid =
    let b = f.Ir.blocks.(bid) in
    run_insts b.Ir.insts;
    charge st (Cost.term b.Ir.term);
    match b.Ir.term with
    | Ir.Jmp l -> run_block l
    | Ir.Br { cond; if_true; if_false } ->
        run_block (if value cond <> 0 then if_true else if_false)
    | Ir.Ret None -> None
    | Ir.Ret (Some v) -> Some (value v)
  in
  run_block f.Ir.entry

let run ?(hooks = default_hooks) ?(fuel = 50_000_000) modul name args =
  let st =
    {
      hooks;
      modul;
      mem = Itbl.create ~capacity:1024 ~dummy:0 ();
      depth = 0;
      brk = 0x1000;
      fuel;
      cycles = 0;
      dyn_insts = 0;
      loads = 0;
      stores = 0;
      allocs = 0;
      guards = 0;
      tracks = 0;
      callbacks = 0;
      polls = 0;
      last_callback = 0;
      max_gap = 0;
    }
  in
  hooks.on_init
    { read = (fun a -> read st.mem a); write = (fun a v -> write st.mem a v) };
  let ret = call st name args in
  let final_gap = st.cycles - st.last_callback in
  if final_gap > st.max_gap then st.max_gap <- final_gap;
  {
    ret;
    cycles = st.cycles;
    dyn_insts = st.dyn_insts;
    loads = st.loads;
    stores = st.stores;
    allocs = st.allocs;
    guards = st.guards;
    tracks = st.tracks;
    callbacks = st.callbacks;
    polls = st.polls;
    max_callback_gap = st.max_gap;
  }
