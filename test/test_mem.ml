(* Tests for the memory substrate: the buddy allocator. *)

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

(* The buddy against the reference model (test/buddy_ref.ml) on one
   random sequence of allocations and frees, run to exhaustion: at
   every step both pick the same block (or both find none), and they
   agree on the bytes allocated, the largest free block and the live
   blocks.  The lowest-address choice is what makes CARAT's
   defragmentation converge, so the block chosen is checked, not just
   that blocks do not overlap. *)
type buddy_op = Alloc of int | Free of int

let buddy_ops =
  let open QCheck in
  let op =
    Gen.frequency
      [
        (3, Gen.map (fun n -> Alloc n) (Gen.int_range 1 300));
        (2, Gen.map (fun k -> Free k) Gen.nat);
      ]
  in
  make
    ~print:
      (Print.list (function
        | Alloc n -> Printf.sprintf "alloc %d" n
        | Free k -> Printf.sprintf "free #%d" k))
    Gen.(list_size (1 -- 300) op)

let prop_buddy_matches_reference =
  QCheck.Test.make ~name:"buddy agrees with the reference model" ~count:300
    buddy_ops (fun ops ->
      let b = Buddy.create ~base:4096 ~size:4096 ~min_block:16 in
      let r = Buddy_ref.create ~base:4096 ~size:4096 ~min_block:16 in
      let live = ref [] in
      List.for_all
        (fun op ->
          let same_pick =
            match op with
            | Alloc n ->
                let got = Buddy.alloc b n in
                let want = Buddy_ref.alloc r n in
                Option.iter (fun a -> live := a :: !live) got;
                got = want
            | Free k -> (
                match !live with
                | [] -> true
                | l ->
                    let a = List.nth l (k mod List.length l) in
                    live := List.filter (( <> ) a) l;
                    Buddy.free b a;
                    Buddy_ref.free r a;
                    true)
          in
          same_pick
          && Buddy.allocated_bytes b = Buddy_ref.allocated r
          && Buddy.largest_free_block b = Buddy_ref.largest_free_block r
          && Buddy.live_blocks b = Buddy_ref.live_blocks r)
        ops)

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
          q prop_buddy_matches_reference;
        ] );
    ]
