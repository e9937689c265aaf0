open Iw_engine

type mix = {
  private_frac : float;
  ro_frac : float;
  private_ws_kb : int;
  ro_kb : int;
  shared_kb : int;
  write_frac_private : float;
  write_frac_shared : float;
  locality : float;
}

type bench = { bench_name : string; mix : mix; accesses_per_core : int }

let mk name ?(accesses = 40_000) mix = { bench_name = name; mix; accesses_per_core = accesses }

let samplesort =
  mk "samplesort"
    {
      private_frac = 0.84;
      ro_frac = 0.10;
      private_ws_kb = 2048;
      ro_kb = 4096;
      shared_kb = 64;
      write_frac_private = 0.45;
      write_frac_shared = 0.30;
      locality = 0.86;
    }

let bfs =
  mk "bfs"
    {
      private_frac = 0.70;
      ro_frac = 0.22;
      private_ws_kb = 1024;
      ro_kb = 8192;
      shared_kb = 128;
      write_frac_private = 0.35;
      write_frac_shared = 0.50;
      locality = 0.70;
    }

let mis =
  mk "mis"
    {
      private_frac = 0.72;
      ro_frac = 0.18;
      private_ws_kb = 1024;
      ro_kb = 4096;
      shared_kb = 96;
      write_frac_private = 0.40;
      write_frac_shared = 0.45;
      locality = 0.74;
    }

let convex_hull =
  mk "convex-hull"
    {
      private_frac = 0.86;
      ro_frac = 0.10;
      private_ws_kb = 1536;
      ro_kb = 4096;
      shared_kb = 48;
      write_frac_private = 0.40;
      write_frac_shared = 0.25;
      locality = 0.90;
    }

let remove_duplicates =
  mk "dedup"
    {
      private_frac = 0.76;
      ro_frac = 0.12;
      private_ws_kb = 2048;
      ro_kb = 2048;
      shared_kb = 256;
      write_frac_private = 0.50;
      write_frac_shared = 0.55;
      locality = 0.66;
    }

let suffix_array =
  mk "suffix-array"
    {
      private_frac = 0.80;
      ro_frac = 0.14;
      private_ws_kb = 3072;
      ro_kb = 6144;
      shared_kb = 64;
      write_frac_private = 0.45;
      write_frac_shared = 0.30;
      locality = 0.80;
    }

let nbody =
  mk "nbody"
    {
      private_frac = 0.78;
      ro_frac = 0.18;
      private_ws_kb = 1024;
      ro_kb = 3072;
      shared_kb = 32;
      write_frac_private = 0.30;
      write_frac_shared = 0.20;
      locality = 0.93;
    }

let word_counts =
  mk "word-counts"
    {
      private_frac = 0.74;
      ro_frac = 0.16;
      private_ws_kb = 1536;
      ro_kb = 8192;
      shared_kb = 192;
      write_frac_private = 0.55;
      write_frac_shared = 0.50;
      locality = 0.72;
    }

let pbbs_suite =
  [
    samplesort;
    bfs;
    mis;
    convex_hull;
    remove_duplicates;
    suffix_array;
    nbody;
    word_counts;
  ]

(* Address-space layout: generous, collision-free gaps. *)
let private_base core = (core + 1) * (1 lsl 30)
let ro_base = 1 lsl 28
let shared_base = 1 lsl 27

(* [Rng.float rng 1.0], computed here so the float never leaves this
   function and is never boxed.  The bound-1.0 multiply it drops is
   exact, so every comparison sees the same value.  [Rng.chance] is
   no substitute: it skips its draw when p <= 0, which would shift the
   stream of a mix with a zero write fraction. *)
let[@inline] unit_draw rng = float_of_int (Rng.raw53 rng) /. 9007199254740992.0

(* An address in a region: in its [hot] bytes with probability
   [locality], else anywhere in its [size] bytes. *)
let region_addr rng mix base ~size ~hot =
  if unit_draw rng < mix.locality then base + Rng.int rng hot
  else base + Rng.int rng size

let region_hot ~size_kb ~hot_kb =
  max 64 (min (size_kb * 1024) (hot_kb * 1024))

let run_bench ?(seed = 42) ~params deact bench =
  let m = Machine.create ~params deact in
  let cores = params.Machine.cores in
  let mix = bench.mix in
  let rngs =
    Array.init cores (fun c -> Rng.create ~seed:(seed + (1000 * c) + Hashtbl.hash bench.bench_name))
  in
  let private_hint = Array.init cores (fun c -> Machine.Private_to c) in
  let private_size = mix.private_ws_kb * 1024
  and private_hot = region_hot ~size_kb:mix.private_ws_kb ~hot_kb:64 in
  let ro_size = mix.ro_kb * 1024
  and ro_hot = region_hot ~size_kb:mix.ro_kb ~hot_kb:64 in
  let shared_size = mix.shared_kb * 1024
  and shared_hot = region_hot ~size_kb:mix.shared_kb ~hot_kb:mix.shared_kb in
  (* Interleave cores round-robin so contention patterns overlap.
     Every 4096 rounds is one "epoch": an instant on the machine track
     marks the boundary so traces show where protocol time went.
     Each access draws its class, then its address, then (for
     writable classes) whether it writes, from its core's stream. *)
  for round = 1 to bench.accesses_per_core do
    for core = 0 to cores - 1 do
      let rng = rngs.(core) in
      let r = unit_draw rng in
      if r < mix.private_frac then begin
        let addr =
          region_addr rng mix (private_base core) ~size:private_size
            ~hot:private_hot
        in
        let write = unit_draw rng < mix.write_frac_private in
        Machine.access m ~core ~addr ~write ~hint:private_hint.(core)
      end
      else if r < mix.private_frac +. mix.ro_frac then begin
        let addr = region_addr rng mix ro_base ~size:ro_size ~hot:ro_hot in
        Machine.access m ~core ~addr ~write:false ~hint:Machine.Read_only
      end
      else begin
        let addr =
          region_addr rng mix shared_base ~size:shared_size ~hot:shared_hot
        in
        let write = unit_draw rng < mix.write_frac_shared in
        Machine.access m ~core ~addr ~write ~hint:Machine.Shared_data
      end
    done;
    if round land 4095 = 0 then
      Machine.epoch m ~name:(Printf.sprintf "%s:epoch %d" bench.bench_name (round lsr 12))
  done;
  Machine.epoch m ~name:(bench.bench_name ^ ":done");
  m

type row = {
  bench : string;
  speedup : float;
  energy_reduction_pct : float;
  base_invalidations : int;
  deact_invalidations : int;
}

let fig7 ~params () =
  List.map
    (fun bench ->
      let base = run_bench ~params Machine.Off bench in
      let deact = run_bench ~params Machine.Private_and_ro bench in
      let bc = Machine.makespan base and dc = Machine.makespan deact in
      let be = Machine.interconnect_energy base in
      let de = Machine.interconnect_energy deact in
      {
        bench = bench.bench_name;
        speedup = float_of_int bc /. float_of_int (max 1 dc);
        energy_reduction_pct = 100.0 *. (1.0 -. (de /. max 1e-9 be));
        base_invalidations = (Machine.counters base).invalidations;
        deact_invalidations = (Machine.counters deact).invalidations;
      })
    pbbs_suite

let average_speedup rows =
  List.fold_left (fun a r -> a +. r.speedup) 0.0 rows
  /. float_of_int (List.length rows)

let average_energy_reduction rows =
  List.fold_left (fun a r -> a +. r.energy_reduction_pct) 0.0 rows
  /. float_of_int (List.length rows)
