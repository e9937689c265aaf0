type t = { entries : int; page_kb : int }

type profile = { footprint_kb : int; accesses : int; locality : float }

let create plat ~page_kb =
  if page_kb <= 0 then invalid_arg "Tlb.create: page_kb <= 0";
  { entries = plat.Platform.tlb_entries; page_kb }

let reach_kb t = t.entries * t.page_kb

let misses t p =
  if p.footprint_kb <= reach_kb t then 0
  else begin
    let uncovered =
      float_of_int (p.footprint_kb - reach_kb t) /. float_of_int p.footprint_kb
    in
    let cold_accesses = float_of_int p.accesses *. (1.0 -. p.locality) in
    int_of_float (cold_accesses *. uncovered)
  end
