(* Tests for the memory substrate: buddy allocator and address-space
   regimes. *)

open Iw_mem

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Buddy *)

let mk () = Buddy.create ~base:0 ~size:1024 ~min_block:16

let test_buddy_alloc_free () =
  let b = mk () in
  let a = Option.get (Buddy.alloc b 100) in
  check_int "rounded to 128" 128 (Buddy.block_size b a);
  check_int "allocated" 128 (Buddy.allocated_bytes b);
  Buddy.free b a;
  check_int "all free" 0 (Buddy.allocated_bytes b);
  check_int "coalesced back" 1024 (Buddy.largest_free_block b)

let test_buddy_split_and_coalesce () =
  let b = mk () in
  let a1 = Option.get (Buddy.alloc b 16) in
  let a2 = Option.get (Buddy.alloc b 16) in
  check_bool "split produced distinct blocks" true (a1 <> a2);
  (* Largest free block shrinks after splitting. *)
  check_int "largest free" 512 (Buddy.largest_free_block b);
  Buddy.free b a1;
  Buddy.free b a2;
  check_int "full coalesce" 1024 (Buddy.largest_free_block b)

let test_buddy_exhaustion () =
  let b = mk () in
  let blocks = List.init 64 (fun _ -> Buddy.alloc b 16) in
  check_bool "all 64 min blocks allocated" true
    (List.for_all Option.is_some blocks);
  check_bool "65th fails" true (Buddy.alloc b 16 = None);
  List.iter (fun a -> Buddy.free b (Option.get a)) blocks;
  check_int "all back" 1024 (Buddy.largest_free_block b)

let test_buddy_double_free_rejected () =
  let b = mk () in
  let a = Option.get (Buddy.alloc b 32) in
  Buddy.free b a;
  check_bool "double free raises" true
    (try
       Buddy.free b a;
       false
     with Invalid_argument _ -> true)

let test_buddy_bad_create () =
  check_bool "non-pow2 size" true
    (try
       ignore (Buddy.create ~base:0 ~size:1000 ~min_block:16);
       false
     with Invalid_argument _ -> true)

let test_buddy_fragmentation_metric () =
  let b = mk () in
  (* Allocate everything as 16-byte blocks, then free every other one:
     free space is shattered. *)
  let blocks = Array.init 64 (fun _ -> Option.get (Buddy.alloc b 16)) in
  Array.iteri (fun i a -> if i mod 2 = 0 then Buddy.free b a) blocks;
  check_bool "fragmented" true (Buddy.external_fragmentation b > 0.5);
  Array.iteri (fun i a -> if i mod 2 = 1 then Buddy.free b a) blocks;
  Alcotest.(check (float 1e-9)) "defragmented by coalescing" 0.0
    (Buddy.external_fragmentation b)

let prop_buddy_no_overlap =
  QCheck.Test.make ~name:"live blocks never overlap" ~count:100
    QCheck.(list_of_size Gen.(1 -- 40) (int_range 1 200))
    (fun sizes ->
      let b = Buddy.create ~base:0 ~size:4096 ~min_block:16 in
      List.iter (fun n -> ignore (Buddy.alloc b n)) sizes;
      let blocks = Buddy.live_blocks b in
      let rec ok = function
        | (b1, s1) :: ((b2, _) :: _ as rest) -> b1 + s1 <= b2 && ok rest
        | _ -> true
      in
      ok blocks)

let prop_buddy_alloc_free_restores =
  QCheck.Test.make ~name:"alloc-then-free restores the arena" ~count:100
    QCheck.(list_of_size Gen.(1 -- 30) (int_range 1 300))
    (fun sizes ->
      let b = Buddy.create ~base:0 ~size:4096 ~min_block:16 in
      let live =
        List.filter_map (fun n -> Buddy.alloc b n) sizes
      in
      List.iter (Buddy.free b) live;
      Buddy.largest_free_block b = 4096 && Buddy.allocated_bytes b = 0)

(* ------------------------------------------------------------------ *)
(* Address spaces *)

let plat = Iw_hw.Platform.small

let profile =
  { Iw_hw.Tlb.footprint_kb = 512 * 1024; accesses = 2_000_000; locality = 0.1 }

let test_identity_no_faults () =
  let asp = Address_space.create plat Address_space.Identity_large in
  check_int "no page faults" 0 (Address_space.page_faults asp profile)

let test_demand_paged_costs_more () =
  let ident = Address_space.create plat Address_space.Identity_large in
  let demand = Address_space.create plat Address_space.Demand_paged in
  check_bool "demand paging strictly more expensive" true
    (Address_space.overhead_cycles demand profile
    > Address_space.overhead_cycles ident profile);
  check_bool "demand faults" true (Address_space.page_faults demand profile > 0)

let test_carat_no_hw_overhead () =
  let carat = Address_space.create plat Address_space.Carat_guarded in
  check_int "carat hardware overhead is zero"
    0
    (Address_space.overhead_cycles carat profile)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "mem"
    [
      ( "buddy",
        [
          Alcotest.test_case "alloc/free" `Quick test_buddy_alloc_free;
          Alcotest.test_case "split/coalesce" `Quick
            test_buddy_split_and_coalesce;
          Alcotest.test_case "exhaustion" `Quick test_buddy_exhaustion;
          Alcotest.test_case "double free" `Quick
            test_buddy_double_free_rejected;
          Alcotest.test_case "bad create" `Quick test_buddy_bad_create;
          Alcotest.test_case "fragmentation metric" `Quick
            test_buddy_fragmentation_metric;
          q prop_buddy_no_overlap;
          q prop_buddy_alloc_free_restores;
        ] );
      ( "address-space",
        [
          Alcotest.test_case "identity: no faults" `Quick
            test_identity_no_faults;
          Alcotest.test_case "demand paging costs more" `Quick
            test_demand_paged_costs_more;
          Alcotest.test_case "carat: no hw overhead" `Quick
            test_carat_no_hw_overhead;
        ] );
    ]
