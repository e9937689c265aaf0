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
    Iw_passes.Timing_pass.Framework.create ~period:10_000
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
    Iw_passes.Timing_pass.Framework.create ~period:50_000
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

(* The physical heap is a buddy heap of 16-word minimum blocks. *)
let test_create_refuses_heap_size () =
  List.iter
    (fun n ->
      let msg =
        Printf.sprintf
          "Runtime.create: heap_size must be a power of two >= 16, got %d" n
      in
      Alcotest.check_raises msg (Invalid_argument msg) (fun () ->
          ignore (Runtime.create ~heap_size:n ())))
    [ 1000; 8; 0; -16 ]

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

(* A lookup that misses the last-hit region bisects the region table
   and allocates nothing.  Guards alternate between the first and the
   last of 64 regions, so every lookup misses; the difference of two
   run lengths cancels the setup.  The map the table replaced built a
   closure and an option per miss, 9 words. *)
let test_words_per_lookup_miss () =
  let words guards =
    let rt = Runtime.create () in
    let hooks = Runtime.hooks rt in
    let bases =
      Array.init 64 (fun _ -> Option.get (hooks.extern "malloc" [ 8 ]))
    in
    let a = bases.(0) and b = bases.(63) in
    let w0 = Gc.minor_words () in
    for i = 1 to guards do
      hooks.on_guard
        ~base:(if i land 1 = 0 then a else b)
        ~offset:5 ~length:None
    done;
    Gc.minor_words () -. w0
  in
  let per = (words 200_000 -. words 100_000) /. 100_000.0 in
  check_bool
    (Printf.sprintf "%.3f minor words per lookup miss <= 0.5" per)
    true (per <= 0.5)

(* A malloc and a free through the hooks allocate 11 words: the free's
   argument list (3), the malloc's [Some] (2), the buddy's [Some] (2)
   and the region record (4).  Over the default 4M-word heap, the
   buddy's hash-set free lists and the region map took 318. *)
let test_words_per_malloc_free () =
  let words pairs =
    let rt = Runtime.create () in
    let hooks = Runtime.hooks rt in
    let w0 = Gc.minor_words () in
    for _ = 1 to pairs do
      let base = Option.get (hooks.extern "malloc" [ 8 ]) in
      ignore (hooks.extern "free" [ base ])
    done;
    Gc.minor_words () -. w0
  in
  let per = (words 20_000 -. words 10_000) /. 10_000.0 in
  check_bool
    (Printf.sprintf "%.3f minor words per malloc/free pair <= 11" per)
    true (per <= 11.0)

(* ------------------------------------------------------------------ *)
(* Region table against a naive model *)

(* The runtime's bookkeeping, naively: regions in a list searched from
   the front, the heap the reference buddy (test/buddy_ref.ml), and the
   same move and defragmentation rules. *)
type mregion = { ml : int; ms : int; mutable mp : int }

type model = {
  heap : Buddy_ref.t;
  mutable live : mregion list;  (* ascending logical base *)
  mutable next : int;
  mutable freed : int list;  (* bases of freed regions *)
}

let model_heap = 1 lsl 12

let model_create () =
  {
    heap = Buddy_ref.create ~base:model_heap ~size:model_heap ~min_block:16;
    live = [];
    next = 16 * model_heap;
    freed = [];
  }

let model_find md addr =
  List.find_opt (fun r -> r.ml <= addr && addr < r.ml + r.ms) md.live

let model_translate md addr =
  match model_find md addr with Some r -> r.mp + (addr - r.ml) | None -> addr

let model_malloc md n =
  let size = max 1 n in
  match Buddy_ref.alloc md.heap size with
  | None -> Error "carat: out of physical memory"
  | Some phys ->
      let logical = md.next in
      md.next <- logical + size;
      md.live <- md.live @ [ { ml = logical; ms = size; mp = phys } ];
      Ok logical

let model_free md base =
  match List.find_opt (fun r -> r.ml = base) md.live with
  | None -> Error "carat: free of untracked base"
  | Some r ->
      Buddy_ref.free md.heap r.mp;
      md.live <- List.filter (fun r' -> r' != r) md.live;
      md.freed <- r.ml :: md.freed;
      Ok 0

let model_move md r =
  match Buddy_ref.alloc md.heap r.ms with
  | None -> None
  | Some p ->
      Buddy_ref.free md.heap r.mp;
      r.mp <- p;
      Some p

let model_defragment md =
  List.fold_left
    (fun moved r ->
      let old = r.mp in
      match model_move md r with
      | Some p when p < old -> moved + 1
      | Some _ -> (
          match model_move md r with
          | Some p when p < old -> moved + 1
          | _ -> moved)
      | None -> moved)
    0
    (List.sort (fun a b -> compare a.mp b.mp) md.live)

type region_op =
  | Malloc of int
  | Free_live of int
  | Free_dead of int
  | Move of int
  | Defrag

let region_ops =
  let open QCheck in
  let op =
    Gen.frequency
      [
        (5, Gen.map (fun n -> Malloc n) (Gen.int_range 1 200));
        (2, Gen.map (fun k -> Free_live k) Gen.nat);
        (1, Gen.map (fun k -> Free_dead k) Gen.nat);
        (2, Gen.map (fun k -> Move k) Gen.nat);
        (1, Gen.return Defrag);
      ]
  in
  make
    ~print:
      (Print.list (function
        | Malloc n -> Printf.sprintf "malloc %d" n
        | Free_live k -> Printf.sprintf "free live #%d" k
        | Free_dead k -> Printf.sprintf "free dead #%d" k
        | Move k -> Printf.sprintf "move #%d" k
        | Defrag -> "defragment"))
    Gen.(list_size (1 -- 120) op)

let nth_mod l k = List.nth l (k mod List.length l)

(* Every lookup answer the model predicts: each live region's first
   and last word and one past its end, the word below the first base,
   and the first word of every freed region.  [translate] and a guard
   must agree with the model there, and each region's first word must
   still hold the value written at allocation, wherever it moved. *)
let agrees rt hooks mem md =
  let probe addr =
    let want = model_translate md addr in
    let faulted =
      try
        hooks.Interp.on_guard ~base:addr ~offset:0 ~length:None;
        false
      with Interp.Fault msg ->
        msg = Printf.sprintf "carat: protection fault at %#x" addr
        || failwith ("unexpected fault: " ^ msg)
    in
    hooks.translate addr = want && faulted = (model_find md addr = None)
  in
  List.for_all
    (fun r ->
      probe r.ml && probe (r.ml + r.ms - 1) && probe (r.ml + r.ms)
      && Hashtbl.find_opt mem (hooks.translate r.ml) = Some r.ml)
    md.live
  && probe ((16 * model_heap) - 1)
  && List.for_all probe md.freed
  && Runtime.regions rt = List.map (fun r -> (r.ml, r.ms)) md.live
  && Runtime.region_count rt = List.length md.live
  && Runtime.live_words rt = List.fold_left (fun a r -> a + r.ms) 0 md.live

let prop_region_table_matches_model =
  QCheck.Test.make ~name:"region table agrees with a naive model" ~count:200
    region_ops (fun ops ->
      let rt = Runtime.create ~heap_size:model_heap () in
      let hooks = Runtime.hooks rt in
      let mem = Hashtbl.create 64 in
      hooks.on_init
        {
          Interp.read =
            (fun a -> Option.value ~default:0 (Hashtbl.find_opt mem a));
          write = (fun a v -> Hashtbl.replace mem a v);
        };
      let md = model_create () in
      let call name arg =
        match hooks.extern name [ arg ] with
        | Some v -> Ok v
        | None -> Error "no answer"
        | exception Interp.Fault msg -> Error msg
      in
      List.for_all
        (fun op ->
          let same =
            match op with
            | Malloc n ->
                let got = call "malloc" n in
                Result.iter
                  (fun b -> Hashtbl.replace mem (hooks.translate b) b)
                  got;
                got = model_malloc md n
            | Free_live k -> (
                match md.live with
                | [] -> true
                | l ->
                    let b = (nth_mod l k).ml in
                    call "free" b = model_free md b)
            | Free_dead k -> (
                match md.freed with
                | [] -> true
                | l ->
                    let b = nth_mod l k in
                    call "free" b = model_free md b)
            | Move k -> (
                match md.live with
                | [] -> true
                | l ->
                    let r = nth_mod l k in
                    Runtime.move_region rt ~base:r.ml = model_move md r)
            | Defrag -> Runtime.defragment rt = model_defragment md
          in
          same && agrees rt hooks mem md)
        ops)

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

(* A heap no run can sample is refused, naming the field and the
   function that refused it. *)
let test_far_memory_refuses_bad_shapes () =
  let config = Far_memory.default ~local_capacity_words:100 Far_memory.Object in
  let simulate ?(objects = 10) ?(object_words = 4) ?(accesses = 10)
      ?(zipf = 0.9) () =
    ignore (Far_memory.simulate ~objects ~object_words ~accesses ~zipf config)
  in
  let sweep ?(objects = 10) ?(zipf = 0.9) ?(fractions = [ 0.5 ]) () =
    ignore
      (Far_memory.sweep ~objects ~object_words:4 ~accesses:10 ~zipf ~fractions
         ())
  in
  let refused msg f = Alcotest.check_raises msg (Invalid_argument msg) f in
  refused "Far_memory.simulate: objects must be > 0" (simulate ~objects:0);
  refused "Far_memory.simulate: object_words must be > 0"
    (simulate ~object_words:(-1));
  refused "Far_memory.simulate: accesses must be > 0" (simulate ~accesses:0);
  refused "Far_memory.simulate: zipf must be finite and >= 0"
    (simulate ~zipf:(-0.5));
  refused "Far_memory.simulate: zipf must be finite and >= 0"
    (simulate ~zipf:Float.nan);
  refused "Far_memory.simulate: granularity must be Object or Page n with n > 0"
    (fun () ->
      ignore
        (Far_memory.simulate ~objects:10 ~object_words:4 ~accesses:10 ~zipf:0.9
           (Far_memory.default ~local_capacity_words:0 (Far_memory.Page 0))));
  refused "Far_memory.sweep: objects must be > 0" (sweep ~objects:(-3));
  refused "Far_memory.sweep: zipf must be finite and >= 0"
    (sweep ~zipf:Float.infinity);
  refused "Far_memory.sweep: fractions must lie in [0, 1]"
    (sweep ~fractions:[ 0.5; 1.5 ]);
  refused "Far_memory.sweep: fractions must lie in [0, 1]"
    (sweep ~fractions:[ Float.nan ])

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
          Alcotest.test_case "bad heap_size" `Quick
            test_create_refuses_heap_size;
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
          QCheck_alcotest.to_alcotest prop_region_table_matches_model;
          Alcotest.test_case "words per lookup miss" `Quick
            test_words_per_lookup_miss;
          Alcotest.test_case "words per malloc/free pair" `Quick
            test_words_per_malloc_free;
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
          Alcotest.test_case "bad shapes named" `Quick
            test_far_memory_refuses_bad_shapes;
        ] );
      ( "overhead",
        [
          Alcotest.test_case "table shape (E7)" `Slow test_overhead_table_shape;
        ] );
    ]
