(* Tests for the IR: builder, CFG analyses, interpreter, and the
   benchmark corpus' correctness. *)

open Iw_ir

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* A tiny diamond:  entry -> (then | else) -> join *)
let diamond () =
  let bld = Ir.Build.start ~name:"diamond" ~nparams:1 in
  let p = List.hd (Ir.Build.params bld) in
  let entry = Ir.Build.new_block bld in
  let thenb = Ir.Build.new_block bld in
  let elseb = Ir.Build.new_block bld in
  let join = Ir.Build.new_block bld in
  Ir.Build.set_cursor bld entry;
  let c = Ir.Build.bin bld Ir.Lt (Ir.Reg p) (Ir.Imm 10) in
  Ir.Build.terminate bld
    (Ir.Br { cond = Ir.Reg c; if_true = thenb; if_false = elseb });
  Ir.Build.set_cursor bld thenb;
  let v1 = Ir.Build.bin bld Ir.Add (Ir.Reg p) (Ir.Imm 1) in
  Ir.Build.terminate bld (Ir.Jmp join);
  Ir.Build.set_cursor bld elseb;
  let v2 = Ir.Build.bin bld Ir.Mul (Ir.Reg p) (Ir.Imm 2) in
  Ir.Build.terminate bld (Ir.Jmp join);
  Ir.Build.set_cursor bld join;
  let s = Ir.Build.bin bld Ir.Add (Ir.Reg v1) (Ir.Reg v2) in
  Ir.Build.terminate bld (Ir.Ret (Some (Ir.Reg s)));
  Ir.Build.finish bld

let test_builder_missing_terminator () =
  let bld = Ir.Build.start ~name:"broken" ~nparams:0 in
  let _ = Ir.Build.new_block bld in
  check_bool "raises" true
    (try
       ignore (Ir.Build.finish bld);
       false
     with Invalid_argument _ -> true)

let test_cfg_diamond () =
  let f = diamond () in
  let cfg = Cfg.of_func f in
  Alcotest.(check (list int)) "entry succs" [ 1; 2 ] (Cfg.successors cfg 0);
  Alcotest.(check (list int)) "join preds" [ 1; 2 ]
    (List.sort compare (Cfg.predecessors cfg 3));
  check_bool "entry dominates join" true (Cfg.dominates cfg 0 3);
  check_bool "then does not dominate join" false (Cfg.dominates cfg 1 3);
  check_bool "reflexive" true (Cfg.dominates cfg 3 3);
  Alcotest.(check (option int)) "idom of join" (Some 0)
    (Cfg.immediate_dominator cfg 3);
  Alcotest.(check int) "no loops" 0 (List.length (Cfg.loops cfg))

let test_cfg_loop_detection () =
  let p = Programs.vec_sum 10 in
  let m = p.build () in
  let f = Ir.find_func m p.entry in
  let cfg = Cfg.of_func f in
  let loops = Cfg.loops cfg in
  check_int "two loops (init + sum)" 2 (List.length loops);
  List.iter
    (fun (l : Cfg.loop) ->
      check_int "depth 1" 1 l.depth;
      check_bool "header in body" true (List.mem l.header l.body))
    loops

let test_cfg_nested_loop_depth () =
  let p = Programs.mat_mul 4 in
  let m = p.build () in
  let f = Ir.find_func m p.entry in
  let cfg = Cfg.of_func f in
  let depths = List.map (fun (l : Cfg.loop) -> l.depth) (Cfg.loops cfg) in
  check_int "deepest nest is 3" 3 (List.fold_left max 0 depths)

let test_interp_diamond () =
  let m = Ir.create_module () in
  Ir.add_func m (diamond ());
  (* p < 10: v1 = p+1, v2 unset=0 -> ret p+1.  Wait: both arms execute
     only one side; the other register stays 0. *)
  let r = Interp.run m "diamond" [ 3 ] in
  check_int "then path" 4 (Option.get r.ret);
  let r = Interp.run m "diamond" [ 50 ] in
  check_int "else path" 100 (Option.get r.ret)

let test_interp_counts_cost () =
  let m = Ir.create_module () in
  Ir.add_func m (diamond ());
  let r = Interp.run m "diamond" [ 3 ] in
  check_bool "cycles positive" true (r.cycles > 0);
  check_bool "dyn insts positive" true (r.dyn_insts > 0)

let test_interp_fuel () =
  (* An infinite loop must hit Out_of_fuel, not hang. *)
  let bld = Ir.Build.start ~name:"spin" ~nparams:0 in
  let b = Ir.Build.new_block bld in
  Ir.Build.set_cursor bld b;
  let _ = Ir.Build.bin bld Ir.Add (Ir.Imm 1) (Ir.Imm 1) in
  Ir.Build.terminate bld (Ir.Jmp b);
  let m = Ir.create_module () in
  Ir.add_func m (Ir.Build.finish bld);
  check_bool "out of fuel" true
    (try
       ignore (Interp.run ~fuel:1000 m "spin" []);
       false
     with Interp.Out_of_fuel -> true)

let test_interp_div_by_zero () =
  let bld = Ir.Build.start ~name:"div0" ~nparams:0 in
  let _ = Ir.Build.new_block bld in
  let d = Ir.Build.bin bld Ir.Div (Ir.Imm 1) (Ir.Imm 0) in
  Ir.Build.terminate bld (Ir.Ret (Some (Ir.Reg d)));
  let m = Ir.create_module () in
  Ir.add_func m (Ir.Build.finish bld);
  check_bool "faults" true
    (try
       ignore (Interp.run m "div0" []);
       false
     with Interp.Fault _ -> true)

(* The memory table cannot hold [min_int] or [min_int + 1]: a store or
   load there is a wild access and faults naming the address, with no
   runtime hooked in. *)
let test_interp_wild_address () =
  let m = Ir.create_module () in
  let bld = Ir.Build.start ~name:"wild" ~nparams:0 in
  let _ = Ir.Build.new_block bld in
  Ir.Build.store bld ~base:(Ir.Imm min_int) ~offset:(Ir.Imm 0)
    ~value:(Ir.Imm 7);
  Ir.Build.terminate bld (Ir.Ret None);
  Ir.add_func m (Ir.Build.finish bld);
  let bld = Ir.Build.start ~name:"wild_load" ~nparams:0 in
  let _ = Ir.Build.new_block bld in
  let v = Ir.Build.load bld ~base:(Ir.Imm min_int) ~offset:(Ir.Imm 1) in
  Ir.Build.terminate bld (Ir.Ret (Some (Ir.Reg v)));
  Ir.add_func m (Ir.Build.finish bld);
  Alcotest.check_raises "store at min_int"
    (Interp.Fault (Printf.sprintf "wild access at address %d" min_int))
    (fun () -> ignore (Interp.run m "wild" []));
  Alcotest.check_raises "load at min_int + 1"
    (Interp.Fault (Printf.sprintf "wild access at address %d" (min_int + 1)))
    (fun () -> ignore (Interp.run m "wild_load" []))

let test_programs_compute_correctly () =
  List.iter
    (fun (p : Programs.program) ->
      match p.expected with
      | None -> ()
      | Some want ->
          let m = p.build () in
          let r = Interp.run m p.entry p.args in
          Alcotest.(check (option int)) p.name (Some want) r.ret)
    (Programs.carat_suite () @ Programs.timing_suite ())

let test_fib_program () =
  let p = Programs.fib_rec 10 in
  let m = p.build () in
  let r = Interp.run m p.entry p.args in
  check_int "fib 10" 55 (Option.get r.ret)

let test_program_memory_profile () =
  let p = Programs.stream_triad 100 in
  let m = p.build () in
  let r = Interp.run m p.entry p.args in
  check_bool "loads" true (r.loads > 200);
  check_bool "stores" true (r.stores >= 300);
  check_int "allocs" 3 r.allocs

(* ------------------------------------------------------------------ *)
(* Passes *)

let test_carat_naive_guards_every_access () =
  let p = Programs.vec_sum 50 in
  let m = p.build () in
  Iw_passes.Carat_pass.instrument ~config:Iw_passes.Carat_pass.naive m;
  let r = Interp.run m p.entry p.args in
  check_int "one guard per access" (r.loads + r.stores) r.guards;
  check_int "result unchanged" (Option.get p.expected) (Option.get r.ret)

let test_carat_hoist_reduces_dynamic_guards () =
  let p = Programs.stream_triad 500 in
  let naive = p.build () in
  Iw_passes.Carat_pass.instrument ~config:Iw_passes.Carat_pass.naive naive;
  let rn = Interp.run naive p.entry p.args in
  let opt = p.build () in
  Iw_passes.Carat_pass.instrument ~config:Iw_passes.Carat_pass.optimized opt;
  let ro = Interp.run opt p.entry p.args in
  check_bool
    (Printf.sprintf "hoisting: %d -> %d dynamic guards" rn.guards ro.guards)
    true
    (ro.guards * 100 < rn.guards);
  check_int "result unchanged" (Option.get p.expected) (Option.get ro.ret)

let test_carat_pointer_chase_not_hoistable () =
  let p = Programs.pointer_chase 100 in
  let naive = p.build () in
  Iw_passes.Carat_pass.instrument ~config:Iw_passes.Carat_pass.naive naive;
  let rn = Interp.run naive p.entry p.args in
  let opt = p.build () in
  Iw_passes.Carat_pass.instrument ~config:Iw_passes.Carat_pass.optimized opt;
  let ro = Interp.run opt p.entry p.args in
  (* The walk loop's guards cannot move: dynamic counts stay close. *)
  check_bool "guards mostly remain" true (ro.guards * 2 > rn.guards)

let test_carat_tracks_allocations () =
  let p = Programs.alloc_churn 50 in
  let m = p.build () in
  Iw_passes.Carat_pass.instrument m;
  let r = Interp.run m p.entry p.args in
  (* One alloc track + one free track per iteration. *)
  check_int "tracks" (2 * 50) r.tracks

let test_timing_gap_bounded () =
  List.iter
    (fun (p : Programs.program) ->
      let budget = 2000 in
      let a = Iw_passes.Timing_pass.measure ~check_budget:budget p in
      check_bool
        (Printf.sprintf "%s: max gap %d <= budget %d" p.name a.max_gap budget)
        true (a.max_gap <= budget))
    (Programs.timing_suite ())

let test_timing_loops_cheap () =
  let a =
    Iw_passes.Timing_pass.measure ~check_budget:2000 (Programs.vec_sum 4000)
  in
  check_bool
    (Printf.sprintf "strip-mined overhead %.2f%% < 3%%" a.overhead_pct)
    true (a.overhead_pct < 3.0)

let test_timing_budget_tradeoff () =
  let p = Programs.vec_sum 4000 in
  let tight = Iw_passes.Timing_pass.measure ~check_budget:300 p in
  let loose = Iw_passes.Timing_pass.measure ~check_budget:5000 p in
  check_bool "tight budget -> more checks" true (tight.checks > loose.checks);
  check_bool "tight budget -> smaller gaps" true (tight.max_gap < loose.max_gap)

let test_timing_framework_fires_at_period () =
  let p = Programs.vec_sum 4000 in
  let m = p.build () in
  ignore (Iw_passes.Timing_pass.instrument ~check_budget:500 m);
  let fired_at = ref [] in
  let fw =
    Iw_passes.Timing_pass.Framework.create ~period:10_000
      ~on_fire:(fun ~now -> fired_at := now :: !fired_at)
  in
  let hooks = Iw_passes.Timing_pass.Framework.hook fw Interp.default_hooks in
  let r = Interp.run ~hooks m p.entry p.args in
  let fires = Iw_passes.Timing_pass.Framework.fires fw in
  check_bool "fired repeatedly" true (fires > 3);
  (* Fires per total time should be close to the period. *)
  let expected = r.cycles / 10_000 in
  check_bool
    (Printf.sprintf "fires %d ~ expected %d" fires expected)
    true
    (abs (fires - expected) <= 1 + (expected / 4));
  (* Consecutive fires are at least a period apart. *)
  let rec gaps_ok = function
    | a :: (b :: _ as rest) -> a - b >= 10_000 && gaps_ok rest
    | _ -> true
  in
  check_bool "fire spacing >= period" true (gaps_ok !fired_at)

let test_polling_services_all_events () =
  let plat = Iw_hw.Platform.small in
  let r =
    Iw_passes.Polling_pass.measure ~poll_budget:1000
      ~completions:[ 5_000; 20_000; 40_000; 60_000 ]
      ~plat (Programs.vec_sum 4000)
  in
  check_int "all serviced" 4 r.serviced;
  check_bool "latency bounded by poll budget" true (r.max_latency <= 1000);
  check_bool "polls executed" true (r.polls_executed > 10)

let test_polling_unserviced_counted_honestly () =
  (* Completions landing after the program ends stay unserviced and
     must be reported as such, not silently dropped. *)
  let plat = Iw_hw.Platform.small in
  let r =
    Iw_passes.Polling_pass.measure ~poll_budget:1000
      ~completions:[ 5_000; 1_000_000_000 ]
      ~plat (Programs.vec_sum 500)
  in
  check_int "one serviced" 1 r.serviced;
  check_int "two offered" 2 r.completions

let test_polling_latency_competitive () =
  let plat = Iw_hw.Platform.small in
  let r =
    Iw_passes.Polling_pass.measure ~poll_budget:1000
      ~completions:(List.init 20 (fun i -> (i + 1) * 3_000))
      ~plat (Programs.vec_sum 4000)
  in
  (* §V-C: the device appears interrupt-driven; mean service latency
     is in the same ballpark as interrupt dispatch itself. *)
  check_bool
    (Printf.sprintf "mean latency %.0f <= 2x interrupt path %d" r.mean_latency
       (2 * r.interrupt_latency))
    true
    (r.mean_latency <= float_of_int (2 * r.interrupt_latency))

let prop_timing_preserves_results =
  QCheck.Test.make ~name:"timing pass preserves program results" ~count:20
    QCheck.(int_range 50 500)
    (fun n ->
      let p = Iw_ir.Programs.vec_sum n in
      let a = Iw_passes.Timing_pass.measure ~check_budget:700 p in
      (* measure itself asserts result equality; also sanity-check gaps. *)
      a.max_gap <= 700)

let prop_carat_preserves_results =
  QCheck.Test.make ~name:"carat pass preserves program results" ~count:20
    QCheck.(pair (int_range 20 200) bool)
    (fun (n, hoist) ->
      let p = Iw_ir.Programs.histogram n in
      let m = p.build () in
      Iw_passes.Carat_pass.instrument
        ~config:{ aggregate = true; hoist }
        m;
      let r = Interp.run m p.entry p.args in
      r.ret = p.expected)

(* ------------------------------------------------------------------ *)
(* Random structured programs: the passes must preserve semantics and
   hold their bounds on program shapes the corpus never exercises. *)

type rprog =
  | Work of int  (* n accumulator updates *)
  | Mem of int  (* n load-modify-store round-trips on the scratch array *)
  | Loop of int * rprog list
  | If of rprog list * rprog list

let rprog_gen =
  QCheck.Gen.(
    sized_size (int_bound 12) @@ fix (fun self n ->
        if n <= 0 then
          oneof [ map (fun k -> Work (1 + k)) (int_bound 12);
                  map (fun k -> Mem (1 + k)) (int_bound 6) ]
        else
          frequency
            [
              (2, map (fun k -> Work (1 + k)) (int_bound 12));
              (2, map (fun k -> Mem (1 + k)) (int_bound 6));
              ( 2,
                map2
                  (fun trips body -> Loop (1 + trips, body))
                  (int_bound 6)
                  (list_size (int_bound 3) (self (n / 2))) );
              ( 1,
                map2
                  (fun a b -> If (a, b))
                  (list_size (int_bound 3) (self (n / 2)))
                  (list_size (int_bound 3) (self (n / 2))) );
            ]))

let rec pp_rprog = function
  | Work n -> Printf.sprintf "W%d" n
  | Mem n -> Printf.sprintf "M%d" n
  | Loop (t, body) ->
      Printf.sprintf "L%d[%s]" t (String.concat ";" (List.map pp_rprog body))
  | If (a, b) ->
      Printf.sprintf "If[%s|%s]"
        (String.concat ";" (List.map pp_rprog a))
        (String.concat ";" (List.map pp_rprog b))

let rprog_arb = QCheck.make ~print:pp_rprog rprog_gen

(* Compile an rprog to IR: one scratch array, one accumulator. *)
let compile_rprog prog =
  let bld = Ir.Build.start ~name:"rand" ~nparams:0 in
  let _entry = Ir.Build.new_block bld in
  let arr = Ir.Build.alloc bld ~size:(Ir.Imm 64) in
  let acc = Ir.Build.mov bld (Ir.Imm 1) in
  let emit_loop trips body_fn =
    let i = Ir.Build.mov bld (Ir.Imm 0) in
    let header = Ir.Build.new_block bld in
    Ir.Build.terminate bld (Ir.Jmp header);
    Ir.Build.set_cursor bld header;
    let c = Ir.Build.bin bld Ir.Lt (Ir.Reg i) (Ir.Imm trips) in
    let bodyb = Ir.Build.new_block bld in
    let exitb = Ir.Build.new_block bld in
    Ir.Build.set_term bld header
      (Ir.Br { cond = Ir.Reg c; if_true = bodyb; if_false = exitb });
    Ir.Build.set_cursor bld bodyb;
    body_fn ();
    Ir.Build.emit bld (Ir.Bin { dst = i; op = Ir.Add; a = Ir.Reg i; b = Ir.Imm 1 });
    Ir.Build.terminate bld (Ir.Jmp header);
    Ir.Build.set_cursor bld exitb
  in
  let rec emit = function
    | Work n ->
        for k = 1 to n do
          Ir.Build.emit bld
            (Ir.Bin { dst = acc; op = Ir.Add; a = Ir.Reg acc; b = Ir.Imm k })
        done
    | Mem n ->
        for _ = 1 to n do
          let idx = Ir.Build.bin bld Ir.Rem (Ir.Reg acc) (Ir.Imm 64) in
          let idx = Ir.Build.bin bld Ir.And (Ir.Reg idx) (Ir.Imm 63) in
          let v = Ir.Build.load bld ~base:(Ir.Reg arr) ~offset:(Ir.Reg idx) in
          let v2 = Ir.Build.bin bld Ir.Add (Ir.Reg v) (Ir.Reg acc) in
          Ir.Build.store bld ~base:(Ir.Reg arr) ~offset:(Ir.Reg idx)
            ~value:(Ir.Reg v2);
          Ir.Build.emit bld
            (Ir.Bin { dst = acc; op = Ir.Add; a = Ir.Reg acc; b = Ir.Reg v2 })
        done
    | Loop (trips, body) -> emit_loop trips (fun () -> List.iter emit body)
    | If (a, b) ->
        let c = Ir.Build.bin bld Ir.Rem (Ir.Reg acc) (Ir.Imm 2) in
        let ab = Ir.Build.new_block bld in
        let bb = Ir.Build.new_block bld in
        let join = Ir.Build.new_block bld in
        Ir.Build.terminate bld
          (Ir.Br { cond = Ir.Reg c; if_true = ab; if_false = bb });
        Ir.Build.set_cursor bld ab;
        List.iter emit a;
        Ir.Build.terminate bld (Ir.Jmp join);
        Ir.Build.set_cursor bld bb;
        List.iter emit b;
        Ir.Build.terminate bld (Ir.Jmp join);
        Ir.Build.set_cursor bld join
  in
  emit prog;
  Ir.Build.terminate bld (Ir.Ret (Some (Ir.Reg acc)));
  let m = Ir.create_module () in
  Ir.add_func m (Ir.Build.finish bld);
  m

let run_rprog ?hooks m = Interp.run ?hooks ~fuel:2_000_000 m "rand" []

let prop_timing_random_programs =
  QCheck.Test.make ~name:"timing pass: random programs, bound + semantics"
    ~count:120 rprog_arb
    (fun prog ->
      let budget = 500 in
      let base = run_rprog (compile_rprog prog) in
      let m = compile_rprog prog in
      ignore (Iw_passes.Timing_pass.instrument ~check_budget:budget m);
      let timed = run_rprog m in
      timed.ret = base.ret && timed.max_callback_gap <= budget)

let prop_carat_random_programs =
  QCheck.Test.make ~name:"carat pass: random programs keep their results"
    ~count:120 rprog_arb
    (fun prog ->
      let base = run_rprog (compile_rprog prog) in
      let m = compile_rprog prog in
      Iw_passes.Carat_pass.instrument m;
      let rt = Iw_carat.Runtime.create () in
      let guarded = run_rprog ~hooks:(Iw_carat.Runtime.hooks rt) m in
      guarded.ret = base.ret && Iw_carat.Runtime.guard_faults rt = 0)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "ir"
    [
      ( "builder+cfg",
        [
          Alcotest.test_case "missing terminator" `Quick
            test_builder_missing_terminator;
          Alcotest.test_case "diamond cfg" `Quick test_cfg_diamond;
          Alcotest.test_case "loop detection" `Quick test_cfg_loop_detection;
          Alcotest.test_case "nested loop depth" `Quick
            test_cfg_nested_loop_depth;
        ] );
      ( "interp",
        [
          Alcotest.test_case "diamond paths" `Quick test_interp_diamond;
          Alcotest.test_case "cost counting" `Quick test_interp_counts_cost;
          Alcotest.test_case "fuel" `Quick test_interp_fuel;
          Alcotest.test_case "div by zero" `Quick test_interp_div_by_zero;
          Alcotest.test_case "wild address" `Quick test_interp_wild_address;
        ] );
      ( "programs",
        [
          Alcotest.test_case "corpus computes correctly" `Quick
            test_programs_compute_correctly;
          Alcotest.test_case "fib" `Quick test_fib_program;
          Alcotest.test_case "memory profile" `Quick test_program_memory_profile;
        ] );
      ( "carat-pass",
        [
          Alcotest.test_case "naive guards all" `Quick
            test_carat_naive_guards_every_access;
          Alcotest.test_case "hoist reduces guards" `Quick
            test_carat_hoist_reduces_dynamic_guards;
          Alcotest.test_case "pointer chase stays guarded" `Quick
            test_carat_pointer_chase_not_hoistable;
          Alcotest.test_case "tracks allocations" `Quick
            test_carat_tracks_allocations;
          q prop_carat_preserves_results;
        ] );
      ( "random-programs",
        [
          QCheck_alcotest.to_alcotest prop_timing_random_programs;
          QCheck_alcotest.to_alcotest prop_carat_random_programs;
        ] );
      ( "timing-pass",
        [
          Alcotest.test_case "gap bounded" `Quick test_timing_gap_bounded;
          Alcotest.test_case "strip-mined loops cheap" `Quick
            test_timing_loops_cheap;
          Alcotest.test_case "budget tradeoff" `Quick test_timing_budget_tradeoff;
          Alcotest.test_case "framework fires at period" `Quick
            test_timing_framework_fires_at_period;
          q prop_timing_preserves_results;
        ] );
      ( "polling-pass",
        [
          Alcotest.test_case "services all events" `Quick
            test_polling_services_all_events;
          Alcotest.test_case "latency competitive" `Quick
            test_polling_latency_competitive;
          Alcotest.test_case "unserviced counted" `Quick
            test_polling_unserviced_counted_honestly;
        ] );
    ]
