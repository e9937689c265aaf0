(* Machine-level views over the layers: a fleet's per-machine counter
   tables and the sweepable cost model.  The one context every layer
   shares is [Iw_obs.Obs.t] (typed counters + trace bus): a kernel
   booted with [Sched.boot ~obs] hands it to its CPUs, and components
   created under [Obs.with_ambient] report into its trace, so one
   trace shows hardware irq spans, kernel switches and runtime
   promotions on a shared virtual-cycle axis. *)

open Iw_hw
open Iw_kernel

(* ------------------------------------------------------------------ *)
(* Fleet container: per-machine identity over the same typed
   counters.  A fleet run (Iw_service.Fleet) yields one counter list
   per machine; this folds them into a single table keyed by machine
   name, with a totals row, so cross-machine skew (one box shedding,
   another idle) is visible at a glance. *)

module Fleet = struct
  let counter_table members =
    let tally = Hashtbl.create 64 in
    let order = ref [] in
    List.iter
      (fun (_, counters) ->
        List.iter
          (fun (name, v) ->
            match Hashtbl.find_opt tally name with
            | Some r -> r := !r + v
            | None ->
                Hashtbl.add tally name (ref v);
                order := name :: !order)
          counters)
      members;
    let rows =
      List.concat_map
        (fun (mname, counters) ->
          List.map
            (fun (name, v) -> [ mname; name; string_of_int v ])
            counters)
        members
    in
    let totals =
      List.map
        (fun name -> [ "total"; name; string_of_int !(Hashtbl.find tally name) ])
        (List.sort compare (List.rev !order))
    in
    Table.make ~title:"fleet counters"
      ~headers:[ "machine"; "counter"; "events" ]
      (rows @ totals)

  let total members name =
    List.fold_left
      (fun acc (_, counters) ->
        List.fold_left
          (fun acc (n, v) -> if String.equal n name then acc + v else acc)
          acc counters)
      0 members
end

(* ------------------------------------------------------------------ *)
(* The sweepable cost model: every field of [Platform.costs] exposed
   by name, so experiments (and the `sweep` subcommand) can vary one
   hardware/OS cost and watch the whole stack respond. *)

module Sweep = struct
  type field = {
    f_name : string;
    f_doc : string;
    get : Platform.costs -> int;
    set : Platform.costs -> int -> Platform.costs;
  }

  let f f_name f_doc get set = { f_name; f_doc; get; set }

  let fields =
    [
      f "interrupt_dispatch" "IDT entry to first handler insn"
        (fun c -> c.Platform.interrupt_dispatch)
        (fun c v -> { c with Platform.interrupt_dispatch = v });
      f "interrupt_return" "iret path"
        (fun c -> c.Platform.interrupt_return)
        (fun c v -> { c with Platform.interrupt_return = v });
      f "pipeline_interrupt_dispatch" "branch-injected delivery"
        (fun c -> c.Platform.pipeline_interrupt_dispatch)
        (fun c v -> { c with Platform.pipeline_interrupt_dispatch = v });
      f "ipi_send" "LAPIC ICR write on the sender"
        (fun c -> c.Platform.ipi_send)
        (fun c v -> { c with Platform.ipi_send = v });
      f "ipi_latency" "fabric flight time to the target core"
        (fun c -> c.Platform.ipi_latency)
        (fun c v -> { c with Platform.ipi_latency = v });
      f "timer_program" "LAPIC timer reprogram"
        (fun c -> c.Platform.timer_program)
        (fun c v -> { c with Platform.timer_program = v });
      f "ctx_save_int" "integer register save"
        (fun c -> c.Platform.ctx_save_int)
        (fun c v -> { c with Platform.ctx_save_int = v });
      f "ctx_restore_int" "integer register restore"
        (fun c -> c.Platform.ctx_restore_int)
        (fun c v -> { c with Platform.ctx_restore_int = v });
      f "fp_save" "full vector/FP state save"
        (fun c -> c.Platform.fp_save)
        (fun c v -> { c with Platform.fp_save = v });
      f "fp_restore" "full vector/FP state restore"
        (fun c -> c.Platform.fp_restore)
        (fun c v -> { c with Platform.fp_restore = v });
      f "fiber_switch_base" "fiber switch without interrupt machinery"
        (fun c -> c.Platform.fiber_switch_base)
        (fun c v -> { c with Platform.fiber_switch_base = v });
      f "fiber_fp_save" "compiler-aware FP save"
        (fun c -> c.Platform.fiber_fp_save)
        (fun c v -> { c with Platform.fiber_fp_save = v });
      f "fiber_fp_restore" "compiler-aware FP restore"
        (fun c -> c.Platform.fiber_fp_restore)
        (fun c v -> { c with Platform.fiber_fp_restore = v });
      f "sched_pick" "per-core run-queue pick"
        (fun c -> c.Platform.sched_pick)
        (fun c v -> { c with Platform.sched_pick = v });
      f "sched_pick_rt" "real-time admission+pick"
        (fun c -> c.Platform.sched_pick_rt)
        (fun c v -> { c with Platform.sched_pick_rt = v });
      f "cfs_pick" "Linux CFS pick"
        (fun c -> c.Platform.cfs_pick)
        (fun c v -> { c with Platform.cfs_pick = v });
      f "kernel_entry" "syscall/trap entry incl. mitigations"
        (fun c -> c.Platform.kernel_entry)
        (fun c v -> { c with Platform.kernel_entry = v });
      f "kernel_exit" "syscall/trap exit"
        (fun c -> c.Platform.kernel_exit)
        (fun c v -> { c with Platform.kernel_exit = v });
      f "signal_deliver" "kernel-to-user signal frame setup"
        (fun c -> c.Platform.signal_deliver)
        (fun c v -> { c with Platform.signal_deliver = v });
      f "signal_return" "sigreturn"
        (fun c -> c.Platform.signal_return)
        (fun c v -> { c with Platform.signal_return = v });
      f "futex_wake" "futex wake path"
        (fun c -> c.Platform.futex_wake)
        (fun c v -> { c with Platform.futex_wake = v });
      f "futex_wait" "futex wait path"
        (fun c -> c.Platform.futex_wait)
        (fun c v -> { c with Platform.futex_wait = v });
      f "thread_create" "in-kernel thread creation"
        (fun c -> c.Platform.thread_create)
        (fun c v -> { c with Platform.thread_create = v });
      f "thread_create_user" "Linux user-level thread creation"
        (fun c -> c.Platform.thread_create_user)
        (fun c v -> { c with Platform.thread_create_user = v });
      f "thread_exit" "thread teardown"
        (fun c -> c.Platform.thread_exit)
        (fun c v -> { c with Platform.thread_exit = v });
      f "tlb_miss_walk" "page-table walk on a TLB miss"
        (fun c -> c.Platform.tlb_miss_walk)
        (fun c v -> { c with Platform.tlb_miss_walk = v });
      f "cache_line_remote" "line transfer across the interconnect"
        (fun c -> c.Platform.cache_line_remote)
        (fun c v -> { c with Platform.cache_line_remote = v });
      f "atomic_rmw" "uncontended atomic read-modify-write"
        (fun c -> c.Platform.atomic_rmw)
        (fun c v -> { c with Platform.atomic_rmw = v });
      f "tick_update" "lightweight per-tick bookkeeping"
        (fun c -> c.Platform.tick_update)
        (fun c v -> { c with Platform.tick_update = v });
      f "tick_accounting_extra" "extra general-purpose tick accounting"
        (fun c -> c.Platform.tick_accounting_extra)
        (fun c v -> { c with Platform.tick_accounting_extra = v });
      f "timer_path_direct" "timer expiry dispatched from the handler"
        (fun c -> c.Platform.timer_path_direct)
        (fun c v -> { c with Platform.timer_path_direct = v });
      f "timer_path_softirq" "timer expiry deferred via softirq"
        (fun c -> c.Platform.timer_path_softirq)
        (fun c v -> { c with Platform.timer_path_softirq = v });
      f "timing_check" "one compiler-inserted timing check"
        (fun c -> c.Platform.timing_check)
        (fun c v -> { c with Platform.timing_check = v });
      f "callback_indirect" "indirect timing-callback invocation"
        (fun c -> c.Platform.callback_indirect)
        (fun c v -> { c with Platform.callback_indirect = v });
    ]

  let find name = List.find_opt (fun fd -> fd.f_name = name) fields

  let names = List.map (fun fd -> fd.f_name) fields

  let with_value plat fd v =
    { plat with Platform.costs = fd.set plat.Platform.costs v }

  (* The pinned probe workload: a small contended multi-thread run on
     [Platform.small] under both personalities.  Deliberately touches
     spawn, locks, preemption, ticks, and sleeps so most cost fields
     move at least one column. *)
  let probe plat os =
    let personality =
      match os with `Nk -> Os.nautilus plat | `Linux -> Os.linux plat
    in
    let personality = { personality with Os.tick_noise = (fun _ -> 0) } in
    let obs = Iw_obs.Obs.create () in
    let k = Sched.boot ~obs ~seed:11 ~quantum_us:100.0 ~personality plat in
    (* The cores refuse a negative interrupt cost as they are built;
       any other negative cost is refused here, before the probe runs. *)
    List.iter
      (fun fd ->
        if fd.get plat.Platform.costs < 0 then
          invalid_arg (Printf.sprintf "Sweep: %s must be >= 0" fd.f_name))
      fields;
    let m = Sched.mutex () in
    for i = 0 to 3 do
      ignore
        (Sched.spawn k
           ~spec:
             {
               Sched.sp_name = Printf.sprintf "w%d" i;
               sp_cpu = Some (i mod 2);
               sp_fp = false;
               sp_rt = false;
             }
           (fun () ->
             for _ = 1 to 5 do
               Api.work 50_000;
               Api.with_lock m (fun () -> Api.work 5_000)
             done;
             Api.sleep 10_000))
    done;
    Sched.run k;
    let work = Sched.total_work_cycles k in
    let overhead = Sched.total_overhead_cycles k in
    ( Sched.now k,
      100.0 *. float_of_int overhead /. float_of_int (max 1 (work + overhead))
    )

  let sensitivity ?(plat = Platform.small) fd values =
    let base_nk, _ = probe plat `Nk in
    let base_lx, _ = probe plat `Linux in
    let rows =
      List.map
        (fun v ->
          let plat' = with_value plat fd v in
          let nk_elapsed, nk_pct = probe plat' `Nk in
          let lx_elapsed, lx_pct = probe plat' `Linux in
          let delta base now =
            100.0 *. float_of_int (now - base) /. float_of_int (max 1 base)
          in
          [
            string_of_int v;
            string_of_int nk_elapsed;
            Printf.sprintf "%.1f%%" nk_pct;
            Printf.sprintf "%+.1f%%" (delta base_nk nk_elapsed);
            string_of_int lx_elapsed;
            Printf.sprintf "%.1f%%" lx_pct;
            Printf.sprintf "%+.1f%%" (delta base_lx lx_elapsed);
          ])
        values
    in
    Table.make
      ~title:
        (Printf.sprintf "sensitivity: %s (%s; default %d)" fd.f_name fd.f_doc
           (fd.get plat.Platform.costs))
      ~headers:
        [
          "value";
          "nk-elapsed";
          "nk-overh";
          "nk-delta";
          "linux-elapsed";
          "linux-overh";
          "linux-delta";
        ]
      rows

  (* Geometric-ish default range around the current value: 0, /4, /2,
     1x, 2x, 4x — enough to see whether the stack is sensitive at
     all and in which direction. *)
  let default_values plat fd =
    let v = fd.get plat.Platform.costs in
    List.sort_uniq compare [ 0; v / 4; v / 2; v; v * 2; v * 4 ]

  (* 2-D grid: vary two cost fields together and render the probe's
     elapsed cycles as a matrix (rows = [fd1] values, columns = [fd2]
     values) — the cross-layer interaction view the 1-D sensitivity
     table can't show (e.g. ipi_latency x timer_path_softirq). *)
  let grid ?(plat = Platform.small) ?(os = `Nk) fd1 fd2 values1 values2 =
    let os_name = match os with `Nk -> "nk" | `Linux -> "linux" in
    let rows =
      List.map
        (fun v1 ->
          string_of_int v1
          :: List.map
               (fun v2 ->
                 let plat' = with_value (with_value plat fd1 v1) fd2 v2 in
                 let elapsed, _ = probe plat' os in
                 string_of_int elapsed)
               values2)
        values1
    in
    Table.make
      ~title:
        (Printf.sprintf "grid: elapsed cycles (%s), %s (rows) x %s (cols)"
           os_name fd1.f_name fd2.f_name)
      ~headers:(Printf.sprintf "%s\\%s" fd1.f_name fd2.f_name
                :: List.map string_of_int values2)
      rows
end
