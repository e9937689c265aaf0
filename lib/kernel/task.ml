(* A task is a cycle count in a reusable handle; [next] links the
   handles queued on one CPU, so queueing never allocates. *)
type handle = {
  mutable cycles : int;
  mutable finished : bool;
  done_sem : Sched.semaphore;
  mutable next : handle;
}

let rec nil =
  { cycles = 0; finished = true; done_sem = Sched.semaphore ~init:0; next = nil }

let handle () = { nil with done_sem = Sched.semaphore ~init:0 }

(* Per-CPU FIFO of queued handles; [nil] when empty. *)
type fifo = { mutable head : handle; mutable tail : handle }

let push q h =
  h.next <- nil;
  if q.head == nil then q.head <- h else q.tail.next <- h;
  q.tail <- h

(* [tail] is stale while [head] is [nil]; [push] overwrites it. *)
let pop q =
  let h = q.head in
  if h != nil then q.head <- h.next;
  h

(* Compiler-estimated sizes at or under this many cycles run inline. *)
let inline_threshold = 2000

type t = {
  run : int -> unit;
  queues : fifo array;
  qsems : Sched.semaphore array;  (* one count per queued task, per CPU *)
  mutable workers : Sched.thread list;
  mutable stopping : bool;
  mutable executed : int;
  mutable inlined : int;
}

let worker_body t cpu () =
  let q = t.queues.(cpu) and sem = t.qsems.(cpu) in
  let rec drain () =
    Api.sem_wait sem;
    let h = pop q in
    if h != nil then begin
      t.run h.cycles;
      h.finished <- true;
      Api.sem_post h.done_sem;
      t.executed <- t.executed + 1;
      drain ()
    end
    else if not t.stopping then drain ()  (* shutdown poke *)
  in
  drain ()

let create k run =
  let n = Sched.cpu_count k in
  let t =
    {
      run;
      queues = Array.init n (fun _ -> { head = nil; tail = nil });
      qsems = Array.init n (fun _ -> Sched.semaphore ~init:0);
      workers = [];
      stopping = false;
      executed = 0;
      inlined = 0;
    }
  in
  t.workers <-
    List.init n (fun cpu ->
        Sched.spawn k
          ~spec:
            {
              Sched.default_spec with
              sp_name = Printf.sprintf "taskd-%d" cpu;
              sp_cpu = Some cpu;
            }
          (worker_body t cpu));
  t

let submit t h ~cpu cycles =
  if not h.finished then invalid_arg "Task.submit: handle still in flight";
  h.cycles <- cycles;
  h.finished <- false;
  (* A post that found no waiter last time left a count behind. *)
  Sched.sem_clear h.done_sem;
  if cycles <= inline_threshold then begin
    (* Compiler-estimated small task: run in the submitter's context,
       no queueing, no wakeup. *)
    t.run cycles;
    h.finished <- true;
    Api.sem_post h.done_sem;
    t.inlined <- t.inlined + 1
  end
  else begin
    push t.queues.(cpu) h;
    Api.sem_post t.qsems.(cpu)
  end

let wait h = if not h.finished then Api.sem_wait h.done_sem

let shutdown t =
  t.stopping <- true;
  (* Poke every worker so it re-checks the stopping flag. *)
  Array.iter (fun sem -> Api.sem_post sem) t.qsems;
  List.iter Api.join t.workers

let executed t = t.executed
let inlined t = t.inlined
