open Iw_engine

let work n = Coro.consume n

let spawn ?(name = "thread") ?cpu ?(fp = false) ?(rt = false) body =
  Coro.request
    (Sched.R_spawn
       ({ sp_name = name; sp_cpu = cpu; sp_fp = fp; sp_rt = rt }, body))

let join th = Coro.request (Sched.R_join th)
let now () = Coro.request Sched.R_now
let cpu_id () = Coro.request Sched.R_cpu
let kernel () = Coro.request Sched.R_kernel
let sleep n = Coro.request (Sched.R_sleep n)
let rand bound = Coro.request (Sched.R_rand bound)
let overhead n = if n > 0 then Coro.request (Sched.R_overhead n)
let lock m = Coro.request (Sched.R_lock m)
let unlock m = Coro.request (Sched.R_unlock m)

let with_lock m f =
  lock m;
  match f () with
  | v ->
      unlock m;
      v
  | exception e ->
      unlock m;
      raise e

let sem_wait s = Coro.request (Sched.R_sem_wait s)
let sem_post s = Coro.request (Sched.R_sem_post s)

let parallel ?(fp = false) n f =
  if n <= 0 then invalid_arg "Api.parallel: n <= 0";
  let cpus = Sched.cpu_count (kernel ()) in
  let children =
    List.init (n - 1) (fun i ->
        let idx = i + 1 in
        spawn
          ~name:(Printf.sprintf "par-%d" idx)
          ~cpu:(idx mod cpus) ~fp
          (fun () -> f idx))
  in
  f 0;
  List.iter join children
