type task = {
  tid : int;
  parent : task option;
  mutable core : int;
  mutable live : bool;
  mutable allocs : eobj list;  (* objects this task still owns *)
}

and eobj = {
  mutable owner : task;
  mutable frozen : bool;
  base : int;
  words : int;
}

type 'a obj = { e : eobj; data : 'a array }

type ctx = { task : task; st : state }

and state = {
  machine : Machine.t;
  mutable next_tid : int;
  mutable next_oid : int;
  mutable next_core : int;
  mutable s_accesses : int;
  mutable s_private : int;
  mutable s_ro : int;
  mutable s_shared : int;
  mutable s_entangled : int;
}

type stats = {
  accesses : int;
  classified_private : int;
  classified_ro : int;
  classified_shared : int;
  entanglements : int;
}

let rec is_ancestor ~anc t =
  t.tid = anc.tid
  || match t.parent with Some p -> is_ancestor ~anc p | None -> false

(* The runtime classifier: this is where the language's semantics turn
   into protocol hints, with no programmer annotation. *)
let classify st accessor (o : eobj) ~write =
  if o.frozen then begin
    if write then invalid_arg "Mpl: write to frozen object";
    st.s_ro <- st.s_ro + 1;
    Machine.Read_only
  end
  else if o.owner.tid = accessor.tid then begin
    st.s_private <- st.s_private + 1;
    Machine.Private_to accessor.core
  end
  else if (not o.owner.live) || is_ancestor ~anc:o.owner accessor then begin
    (* Ancestor data (or data whose owner tree already joined above
       us): mutable and potentially visible to siblings. *)
    st.s_shared <- st.s_shared + 1;
    Machine.Shared_data
  end
  else begin
    (* A live, concurrent, non-ancestor task's allocation: an
       entanglement, downgraded to shared. *)
    st.s_entangled <- st.s_entangled + 1;
    st.s_shared <- st.s_shared + 1;
    Machine.Shared_data
  end

let word_bytes = 8

let touch ctx (o : eobj) idx ~write =
  if idx < 0 || idx >= o.words then invalid_arg "Mpl: index out of bounds";
  let st = ctx.st in
  st.s_accesses <- st.s_accesses + 1;
  let hint = classify st ctx.task o ~write in
  Machine.access st.machine ~core:ctx.task.core
    ~addr:(o.base + (idx * word_bytes))
    ~write ~hint

let alloc ctx words ~init =
  if words <= 0 then invalid_arg "Mpl.alloc: words <= 0";
  let st = ctx.st in
  let e =
    {
      owner = ctx.task;
      frozen = false;
      (* Objects live in disjoint address ranges, line-aligned. *)
      base = 0x10000 + (st.next_oid * ((words * word_bytes) + 64));
      words;
    }
  in
  st.next_oid <- st.next_oid + 1;
  ctx.task.allocs <- e :: ctx.task.allocs;
  (* Initialization writes are real accesses. *)
  let o = { e; data = Array.make words init } in
  for i = 0 to words - 1 do
    touch ctx e i ~write:true
  done;
  o

let read ctx o idx =
  touch ctx o.e idx ~write:false;
  o.data.(idx)

let write ctx o idx v =
  touch ctx o.e idx ~write:true;
  o.data.(idx) <- v

let freeze _ctx o = o.e.frozen <- true

let fork st parent =
  let core = st.next_core mod (Machine.params st.machine).Machine.cores in
  st.next_core <- st.next_core + 1;
  let t =
    { tid = st.next_tid; parent = Some parent; core; live = true; allocs = [] }
  in
  st.next_tid <- st.next_tid + 1;
  t

(* Join: the child's surviving allocations become the parent's — from
   now on they are (at most) parent-private, the disentanglement
   guarantee MPL's collector exploits. *)
let join parent child =
  child.live <- false;
  List.iter (fun o -> o.owner <- parent) child.allocs;
  parent.allocs <- child.allocs @ parent.allocs;
  child.allocs <- []

let par2 ctx f g =
  let st = ctx.st in
  let lt = fork st ctx.task and rt = fork st ctx.task in
  (* Left child inherits the parent's core, as work-stealing runtimes
     arrange; the right child lands elsewhere. *)
  lt.core <- ctx.task.core;
  let a = f { task = lt; st } in
  let b = g { task = rt; st } in
  join ctx.task lt;
  join ctx.task rt;
  (a, b)

let rec par_for ctx ~lo ~hi ~grain body =
  if hi - lo <= grain then
    for i = lo to hi - 1 do
      body ctx i
    done
  else begin
    let mid = (lo + hi) / 2 in
    let (), () =
      par2 ctx
        (fun c -> par_for c ~lo ~hi:mid ~grain body)
        (fun c -> par_for c ~lo:mid ~hi ~grain body)
    in
    ()
  end

let run ~machine f =
  let st =
    {
      machine;
      next_tid = 1;
      next_oid = 0;
      next_core = 1;
      s_accesses = 0;
      s_private = 0;
      s_ro = 0;
      s_shared = 0;
      s_entangled = 0;
    }
  in
  let root = { tid = 0; parent = None; core = 0; live = true; allocs = [] } in
  Machine.epoch machine ~name:"mpl:start";
  let v = f { task = root; st } in
  Machine.epoch machine ~name:"mpl:done";
  ( v,
    {
      accesses = st.s_accesses;
      classified_private = st.s_private;
      classified_ro = st.s_ro;
      classified_shared = st.s_shared;
      entanglements = st.s_entangled;
    } )
