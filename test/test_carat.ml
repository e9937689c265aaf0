(* Tests for the CARAT runtime: region tracking, protection, data
   movement under a running program, defragmentation. *)

open Iw_ir
open Iw_carat

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let run_with_carat ?(config = Iw_passes.Carat_pass.optimized)
    (p : Programs.program) =
  let m = p.build () in
  Iw_passes.Carat_pass.instrument ~config m;
  let rt = Runtime.create () in
  let r = Interp.run ~hooks:(Runtime.hooks rt) m p.entry p.args in
  (rt, r)

let test_regions_tracked () =
  let rt, r = run_with_carat (Programs.stream_triad 100) in
  check_int "three live regions (a,b,c never freed)" 3 (Runtime.region_count rt);
  check_int "result correct" 693 (Option.get r.ret)

let test_free_untracks () =
  let rt, _ = run_with_carat (Programs.alloc_churn 100) in
  check_int "churned regions all freed" 0 (Runtime.region_count rt)

let test_guard_checks_counted () =
  let rt, r = run_with_carat ~config:Iw_passes.Carat_pass.naive
      (Programs.vec_sum 100)
  in
  check_int "runtime saw every guard" r.guards (Runtime.guard_checks rt);
  check_int "no faults" 0 (Runtime.guard_faults rt)

let wild_access_program =
  (* Allocates one cell, then loads from an address it never owned. *)
  let build () =
    let bld = Ir.Build.start ~name:"wild" ~nparams:0 in
    let _ = Ir.Build.new_block bld in
    let a = Ir.Build.alloc bld ~size:(Ir.Imm 4) in
    Ir.Build.store bld ~base:(Ir.Reg a) ~offset:(Ir.Imm 0) ~value:(Ir.Imm 7);
    let v = Ir.Build.load bld ~base:(Ir.Imm 0xdead0000) ~offset:(Ir.Imm 0) in
    Ir.Build.terminate bld (Ir.Ret (Some (Ir.Reg v)));
    let m = Ir.create_module () in
    Ir.add_func m (Ir.Build.finish bld);
    m
  in
  {
    Programs.name = "wild";
    suite = "micro";
    build;
    entry = "wild";
    args = [];
    expected = None;
    description = "performs an unmapped access";
  }

let test_wild_access_faults () =
  check_bool "protection fault" true
    (try
       ignore (run_with_carat wild_access_program);
       false
     with Interp.Fault msg ->
       check_bool "carat fault" true
         (String.length msg >= 5 && String.sub msg 0 5 = "carat");
       true)

let test_wild_access_unguarded_passes () =
  (* Without instrumentation there is no protection: the wild read
     returns 0 rather than faulting — that is precisely the service
     CARAT adds. *)
  let m = wild_access_program.build () in
  let r = Interp.run m "wild" [] in
  check_int "silently reads zero" 0 (Option.get r.ret)

let test_translation_transparent () =
  (* Move every region mid-run (from a timing callback) and check the
     program still computes the right answer through the forwarding
     map. *)
  let p = Programs.stream_triad 2000 in
  let m = p.build () in
  Iw_passes.Carat_pass.instrument m;
  ignore (Iw_passes.Timing_pass.instrument ~check_budget:2000 m);
  let rt = Runtime.create () in
  let moved = ref 0 in
  let fw =
    Iw_passes.Timing_pass.Framework.create ~period:10_000 ~fire_cost:100
      ~on_fire:(fun ~now:_ -> moved := !moved + Runtime.defragment rt)
  in
  let hooks = Iw_passes.Timing_pass.Framework.hook fw (Runtime.hooks rt) in
  let r = Interp.run ~hooks m p.entry p.args in
  check_int "result survives data movement" (Option.get p.expected)
    (Option.get r.ret);
  check_bool "fires happened" true
    (Iw_passes.Timing_pass.Framework.fires fw > 0)

let test_explicit_move_preserves_data () =
  let p = Programs.vec_sum 300 in
  let m = p.build () in
  Iw_passes.Carat_pass.instrument m;
  ignore (Iw_passes.Timing_pass.instrument ~check_budget:1000 m);
  let rt = Runtime.create () in
  let moves_done = ref false in
  let fw =
    Iw_passes.Timing_pass.Framework.create ~period:50_000 ~fire_cost:100
      ~on_fire:(fun ~now:_ ->
        if not !moves_done then begin
          moves_done := true;
          (* Move every live region explicitly. *)
          List.iter
            (fun (base, _) -> ignore (Runtime.move_region rt ~base))
            (Runtime.regions rt)
        end)
  in
  let hooks = Iw_passes.Timing_pass.Framework.hook fw (Runtime.hooks rt) in
  let r = Interp.run ~hooks m p.entry p.args in
  check_int "sum correct" (Option.get p.expected) (Option.get r.ret)

let test_defrag_reduces_fragmentation () =
  (* Drive the runtime directly: allocate many, free alternating to
     shatter the heap, defragment, check the metric falls. *)
  (* Fill the whole heap with small blocks, then free every other one:
     free space is maximal but shattered into min-size holes. *)
  let rt = Runtime.create ~heap_size:(1 lsl 14) () in
  let hooks = Runtime.hooks rt in
  let malloc n = Option.get (hooks.extern "malloc" [ n ]) in
  let free b = ignore (hooks.extern "free" [ b ]) in
  let blocks = Array.init 1024 (fun _ -> malloc 16) in
  Array.iteri (fun i b -> if i mod 2 = 0 then free b) blocks;
  let before = Runtime.fragmentation rt in
  let moved = Runtime.defragment rt in
  let after = Runtime.fragmentation rt in
  check_bool "was fragmented" true (before > 0.3);
  check_bool (Printf.sprintf "moved %d regions" moved) true (moved > 0);
  check_bool
    (Printf.sprintf "fragmentation fell: %.2f -> %.2f" before after)
    true (after < before /. 2.0)

let test_moved_region_translation () =
  let rt = Runtime.create () in
  let hooks = Runtime.hooks rt in
  let base = Option.get (hooks.extern "malloc" [ 8 ]) in
  let phys_before = hooks.translate base in
  (* Simulate a context so the copy has something to use. *)
  let mem = Hashtbl.create 16 in
  hooks.on_init
    {
      Interp.read = (fun a -> try Hashtbl.find mem a with Not_found -> 0);
      write = (fun a v -> Hashtbl.replace mem a v);
    };
  Hashtbl.replace mem phys_before 99;
  let new_phys = Option.get (Runtime.move_region rt ~base) in
  check_bool "physical address changed" true (new_phys <> phys_before);
  check_int "translate follows the move" new_phys (hooks.translate base);
  check_int "data copied" 99 (Hashtbl.find mem new_phys)

(* Lookups answer from the last region they found; freeing that region
   must take it out of the answer, so translation passes the address
   through and a guard on it faults. *)
let test_freed_region_faults () =
  let rt = Runtime.create () in
  let hooks = Runtime.hooks rt in
  let base = Option.get (hooks.extern "malloc" [ 8 ]) in
  hooks.on_guard ~base ~offset:3 ~length:None;
  check_bool "live region translated" true
    (hooks.translate (base + 3) <> base + 3);
  ignore (hooks.extern "free" [ base ]);
  check_int "freed address passes through" (base + 3)
    (hooks.translate (base + 3));
  Alcotest.check_raises "guard on a freed region"
    (Interp.Fault (Printf.sprintf "carat: protection fault at %#x" (base + 3)))
    (fun () -> hooks.on_guard ~base ~offset:3 ~length:None)

(* ------------------------------------------------------------------ *)
(* Far memory (SecV-C) *)

let fm_run granularity frac =
  Far_memory.simulate ~objects:2_000 ~object_words:24 ~accesses:50_000
    ~zipf:0.9
    (Far_memory.default
       ~local_capacity_words:(int_of_float (frac *. float_of_int (2_000 * 24)))
       granularity)

let test_far_memory_object_beats_page () =
  let page = fm_run (Far_memory.Page 512) 0.25 in
  let obj = fm_run Far_memory.Object 0.25 in
  check_bool
    (Printf.sprintf "object hit %.2f > page hit %.2f" obj.local_hit_rate
       page.local_hit_rate)
    true
    (obj.local_hit_rate > page.local_hit_rate +. 0.05);
  check_bool "object slowdown lower" true
    (obj.slowdown_vs_all_local < page.slowdown_vs_all_local)

let test_far_memory_full_capacity_all_local () =
  let r = fm_run Far_memory.Object 1.0 in
  Alcotest.(check (float 1e-9)) "all local" 1.0 r.local_hit_rate;
  Alcotest.(check (float 1e-9)) "no slowdown" 1.0 r.slowdown_vs_all_local

let test_far_memory_capacity_monotone () =
  let hit f = (fm_run Far_memory.Object f).local_hit_rate in
  check_bool "more capacity, more hits" true (hit 0.5 > hit 0.1)

let test_far_memory_respects_capacity () =
  let r = fm_run Far_memory.Object 0.3 in
  check_bool "resident fraction <= capacity" true (r.local_fraction <= 0.3 +. 1e-6)

(* An access draws its object without allocating: the words a longer
   run adds, per extra access, stay near zero.  The difference of two
   run lengths cancels the fixed setup (the CDF, placement and heat
   tables).  A boxed float per draw would read 2 words per access. *)
let test_far_memory_words_per_access () =
  let words accesses =
    let w0 = Gc.minor_words () in
    ignore
      (Far_memory.simulate ~objects:2_000 ~object_words:24 ~accesses ~zipf:0.9
         (Far_memory.default ~local_capacity_words:12_000 Far_memory.Object));
    Gc.minor_words () -. w0
  in
  let per = (words 200_000 -. words 100_000) /. 100_000.0 in
  check_bool
    (Printf.sprintf "%.3f minor words per access <= 0.5" per)
    true (per <= 0.5)

(* ------------------------------------------------------------------ *)
(* Overhead study *)

let test_overhead_table_shape () =
  let rows = Eval.table () in
  check_int "eleven benchmarks" 11 (List.length rows);
  let opt = Eval.geomean_optimized rows in
  let naive = Eval.geomean_naive rows in
  check_bool
    (Printf.sprintf "optimized geomean %.2f%% < 6%%" opt)
    true (opt < 6.0);
  check_bool
    (Printf.sprintf "naive geomean %.1f%% much larger" naive)
    true (naive > 4.0 *. opt);
  List.iter
    (fun (r : Eval.row) ->
      check_bool
        (Printf.sprintf "%s: optimization never hurts" r.name)
        true
        (r.optimized_pct <= r.naive_pct +. 0.01))
    rows

let () =
  Alcotest.run "carat"
    [
      ( "runtime",
        [
          Alcotest.test_case "regions tracked" `Quick test_regions_tracked;
          Alcotest.test_case "free untracks" `Quick test_free_untracks;
          Alcotest.test_case "guard checks counted" `Quick
            test_guard_checks_counted;
          Alcotest.test_case "wild access faults" `Quick
            test_wild_access_faults;
          Alcotest.test_case "unguarded wild access passes" `Quick
            test_wild_access_unguarded_passes;
        ] );
      ( "movement",
        [
          Alcotest.test_case "translation transparent" `Quick
            test_translation_transparent;
          Alcotest.test_case "explicit move" `Quick
            test_explicit_move_preserves_data;
          Alcotest.test_case "defrag reduces fragmentation" `Quick
            test_defrag_reduces_fragmentation;
          Alcotest.test_case "moved region translation" `Quick
            test_moved_region_translation;
          Alcotest.test_case "freed region faults" `Quick
            test_freed_region_faults;
        ] );
      ( "far-memory",
        [
          Alcotest.test_case "object beats page" `Quick
            test_far_memory_object_beats_page;
          Alcotest.test_case "full capacity local" `Quick
            test_far_memory_full_capacity_all_local;
          Alcotest.test_case "capacity monotone" `Quick
            test_far_memory_capacity_monotone;
          Alcotest.test_case "respects capacity" `Quick
            test_far_memory_respects_capacity;
          Alcotest.test_case "words per access" `Quick
            test_far_memory_words_per_access;
        ] );
      ( "overhead",
        [
          Alcotest.test_case "table shape (E7)" `Slow test_overhead_table_shape;
        ] );
    ]
