open Iw_engine
open Iw_hw
open Iw_kernel

type node = { work : int; children : (unit -> node) list }

type bench = { tree_name : string; root : unit -> node }

let fib ?(leaf_work = 400) ?(node_work = 90) n =
  let rec gen n () =
    if n < 2 then { work = leaf_work; children = [] }
    else { work = node_work; children = [ gen (n - 1); gen (n - 2) ] }
  in
  { tree_name = Printf.sprintf "fib-%d" n; root = gen n }

let skewed ?(depth = 4000) ?(fanout = 3) () =
  (* A heavy spine: each spine node hangs [fanout-1] light leaves and
     one deep continuation.  Eager forking would create thousands of
     tiny tasks; heartbeat promotion creates a few big ones. *)
  let leaf () = { work = 150; children = [] } in
  let rec spine d () =
    if d = 0 then { work = 150; children = [] }
    else
      {
        work = 120;
        children = List.init fanout (fun i -> if i = 0 then spine (d - 1) else leaf);
      }
  in
  { tree_name = "skewed-spine"; root = spine depth }

let rec fold_tree f acc node =
  let acc = f acc node in
  List.fold_left (fun acc gen -> fold_tree f acc (gen ())) acc node.children

let total_nodes b = fold_tree (fun acc _ -> acc + 1) 0 (b.root ())
let total_work b = fold_tree (fun acc n -> acc + n.work) 0 (b.root ())

type policy = Promote_oldest | Promote_newest

type config = { workers : int; heartbeat_us : float; policy : policy; seed : int }

type report = {
  bench : string;
  policy : policy;
  workers : int;
  elapsed_cycles : int;
  nodes_run : int;
  promotions : int;
  steals : int;
  overhead_pct : float;
  speedup_vs_serial : float;
}

type frame = unit -> node

type wstate = {
  wid : int;
  latent : frame Deque.t;  (* bottom = newest (depth-first next) *)
  public : frame Deque.t;  (* stealable promoted tasks *)
}

type shared = {
  k : Sched.t;
  ws : wstate array;
  policy : policy;
  mutable outstanding : int;  (* frames not yet fully executed *)
  mutable promotions : int;
  mutable steals : int;
  mutable nodes : int;
  srng : Rng.t;
  mutable finish : int;
}

(* Heartbeat handler: move one latent frame of this worker into its
   public deque.  Unlike range splitting, no owed-cycle surgery is
   needed — latent frames live outside any in-flight consume. *)
let on_heartbeat sh cpu ~preempted =
  if preempted >= 0 then Sched.stash_preempted sh.k cpu preempted;
  let w = sh.ws.(cpu) in
  let frame =
    match sh.policy with
    | Promote_oldest -> Deque.steal_top w.latent
    | Promote_newest -> Deque.pop_bottom w.latent
  in
  match frame with
  | Some f ->
      Deque.push_bottom w.public f;
      sh.promotions <- sh.promotions + 1;
      180 (* promotion cost *)
  | None -> 60 (* heartbeat with nothing to promote *)

let worker_body sh w () =
  let costs = (Sched.platform sh.k).Platform.costs in
  let nworkers = Array.length sh.ws in
  let run_frame f =
    let n = f () in
    sh.nodes <- sh.nodes + 1;
    (* The children become latent parallelism; execution proceeds
       depth-first unless a heartbeat promotes one. *)
    List.iter (fun gen -> Deque.push_bottom w.latent gen) (List.rev n.children);
    sh.outstanding <- sh.outstanding + List.length n.children - 1;
    Coro.consume n.work;
    Api.overhead costs.atomic_rmw
  in
  let rec loop backoff =
    if sh.outstanding > 0 then begin
      match Deque.pop_bottom w.latent with
      | Some f ->
          run_frame f;
          loop 150
      | None -> (
          match Deque.pop_bottom w.public with
          | Some f ->
              Api.overhead 20;
              run_frame f;
              loop 150
          | None ->
              if nworkers = 1 then loop backoff
              else begin
                let victim =
                  let v = Rng.int sh.srng (nworkers - 1) in
                  if v >= w.wid then v + 1 else v
                in
                Api.overhead (costs.atomic_rmw + costs.cache_line_remote);
                match Deque.steal_top sh.ws.(victim).public with
                | Some f ->
                    sh.steals <- sh.steals + 1;
                    run_frame f;
                    loop 150
                | None ->
                    Api.overhead backoff;
                    loop (min (backoff * 2) 30_000)
              end)
    end
  in
  loop 150

let install_driver sh ~period =
  let k = sh.k in
  let plat = Sched.platform k in
  let costs = plat.Platform.costs in
  let nworkers = Array.length sh.ws in
  let others = List.init (nworkers - 1) (fun i -> Sched.cpu k (i + 1)) in
  Lapic.periodic (Sched.lapic k 0) ~period
    ~handler:(fun ~preempted ->
      let c = on_heartbeat sh 0 ~preempted in
      Ipi.broadcast (Sched.sim k) plat ~targets:others
        ~handler:(fun cpu ~preempted -> on_heartbeat sh cpu ~preempted)
        ~after:(fun cpu -> Sched.resched_or_resume k cpu);
      c + costs.ipi_send)
    ~after:(fun () -> Sched.resched_or_resume k 0)
    ()

let run plat (config : config) bench =
  if config.workers < 1 then invalid_arg "Tpal_tree.run: workers < 1";
  let plat = Platform.with_cores plat config.workers in
  let k = Sched.boot ~seed:config.seed ~personality:(Os.nautilus plat) plat in
  let sh =
    {
      k;
      ws =
        Array.init config.workers (fun wid ->
            { wid; latent = Deque.create (); public = Deque.create () });
      policy = config.policy;
      outstanding = 1;
      promotions = 0;
      steals = 0;
      nodes = 0;
      srng = Rng.split (Sim.rng (Sched.sim k));
      finish = 0;
    }
  in
  Deque.push_bottom sh.ws.(0).latent bench.root;
  let period = Platform.cycles_of_us plat config.heartbeat_us in
  let workers =
    Array.map
      (fun w ->
        Sched.spawn k
          ~spec:
            {
              Sched.sp_name = Printf.sprintf "tpal-tree-%d" w.wid;
              sp_cpu = Some w.wid;
              sp_fp = false;
              sp_rt = false;
            }
          (worker_body sh w))
      sh.ws
  in
  install_driver sh ~period;
  ignore
    (Sched.spawn k
       ~spec:
         {
           Sched.sp_name = "tpal-tree-main";
           sp_cpu = Some 0;
           sp_fp = false;
           sp_rt = false;
         }
       (fun () ->
         Array.iter Api.join workers;
         sh.finish <- Api.now ()));
  let serial = total_work bench in
  Sched.run_until k (400 * serial);
  if sh.outstanding > 0 then
    failwith
      (Printf.sprintf "tpal_tree: %s did not finish (%d frames left)"
         bench.tree_name sh.outstanding);
  let work = Sched.total_work_cycles k in
  let overhead = Sched.total_overhead_cycles k in
  {
    bench = bench.tree_name;
    policy = config.policy;
    workers = config.workers;
    elapsed_cycles = sh.finish;
    nodes_run = sh.nodes;
    promotions = sh.promotions;
    steals = sh.steals;
    overhead_pct =
      100.0 *. float_of_int overhead /. float_of_int (max 1 (work + overhead));
    speedup_vs_serial = float_of_int serial /. float_of_int (max 1 sh.finish);
  }
